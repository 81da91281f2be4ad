"""The verdict rule of ``tools/ab.py``: who wins a set of paired runs."""

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
