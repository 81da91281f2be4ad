"""The verdict rule of ``tools/ab.py``: who wins a set of paired runs."""

import os
import pathlib
import sys

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "tools"))

import ab  # noqa: E402


def test_quartiles_interpolate():
    assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)


def test_few_pairs_never_name_a_winner():
    for pairs in range(1, 5):
        base = [float(i) for i in range(pairs)]
        head = [b + 100.0 for b in base]
        assert ab.verdict(base, head, True)["winner"] == "-"


def test_winner_needs_nine_of_ten_and_a_gap_beyond_the_iqr():
    base = [100.0 + i for i in range(10)]
    assert ab.verdict(base, [b + 50.0 for b in base], True)["winner"] == "head"
    assert ab.verdict(base, [b + 50.0 for b in base], False)["winner"] == "base"
    # Nine wins of ten, but the medians differ by less than base's IQR.
    small = [b + 1.0 for b in base[:9]] + [base[9] - 1.0]
    assert ab.verdict(base, small, True)["wins"] == 9
    assert ab.verdict(base, small, True)["winner"] == "-"
    # Eight wins of ten: short of nine tenths however large the gap.
    eight = [b + 50.0 for b in base[:8]] + [b - 50.0 for b in base[8:]]
    assert ab.verdict(base, eight, True)["winner"] == "-"
    # Ties count for neither side.
    assert ab.verdict(base, list(base), True)["wins"] == 0
    assert ab.verdict(base, list(base), True)["winner"] == "-"


def test_stale_bytecode_is_deleted_from_a_directory_side(tmp_path):
    package = tmp_path / "src" / "pkg"
    cache = package / "__pycache__"
    cache.mkdir(parents=True)
    (package / "fresh.py").write_text("x = 1\n")
    (package / "stale.py").write_text("x = 1\n")
    fresh = cache / "fresh.cpython-312.pyc"
    stale = cache / "stale.cpython-312.pyc"
    orphan = cache / "gone.cpython-312.pyc"
    for cached in (fresh, stale, orphan):
        cached.write_bytes(b"")
    # ``stale.py`` was edited after its cache was written.
    os.utime(stale, (1_000_000, 1_000_000))
    os.utime(package / "stale.py", (2_000_000, 2_000_000))
    os.utime(package / "fresh.py", (1_000_000, 1_000_000))
    os.utime(fresh, (2_000_000, 2_000_000))

    assert ab.clear_stale_bytecode(tmp_path) == [stale]
    assert not stale.exists() and fresh.exists() and orphan.exists()
    trees = ab.Trees(tmp_path / "scratch")
    os.utime(fresh, (0, 0))
    assert trees.resolve(str(tmp_path), "base") == tmp_path.resolve()
    assert not fresh.exists() and trees.added == []
