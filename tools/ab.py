"""Paired A/B runs of the repository benchmark: parent tree against change.

::

    python tools/ab.py --workload day --seed 4242 --seconds 20 --pairs 10
    python tools/ab.py --base HEAD --head HEAD --workload dhb_kernel --pairs 3
    python tools/ab.py --base ../parent-copy --workload day --trace 1

``--base`` and ``--head`` each name a git revision, checked out with
``git worktree`` under ``--scratch`` (a temporary directory by default) and
removed afterwards, or an existing directory that holds a checkout.  The
head defaults to this checkout as it stands, uncommitted edits included;
the base defaults to ``HEAD``.  In a directory side, every ``.pyc`` older
than its source is deleted before the first run: a stale cache makes each
run recompile that module, which a fresh checkout would not.

Each pair runs ``perfbench/run.py`` once on each tree, the base first in
even pairs and the head first in odd ones, so a drift in host speed falls
on both sides alike.  Only the last stdout line of each run (perfbench's
JSON result) is read; nothing under ``perfbench/`` is touched.

For every metric the report prints each side's median and interquartile
range, and in how many pairs the head was better, in the metric's
``better`` direction from ``BENCHMARK.json``.  A side is named the winner
only if it was better in at least 90% of the pairs, in so many that fair
coin flips would do as well at most 5% of the time (so never in fewer than
five pairs), and its median is better by more than the other side's IQR;
otherwise the verdict is ``-``.
With ``--trace 1`` the metrics are perfbench's per-layer ones, and every
count metric whose value differs between any two runs is flagged
``CHANGED``: counts are deterministic for a seed, so a change in one means
the two trees did different work.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Share of pairs a side must win to be named the winner.
WIN_SHARE = 0.9
#: Largest chance, with no difference between the trees, of a side
#: winning that many pairs, for it to be named the winner.
SIGN_TEST_LEVEL = 0.05


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), linearly interpolated between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quartiles of no values")

    def at(q: float) -> float:
        pos = q * (len(ordered) - 1)
        low = math.floor(pos)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)

    return at(0.25), at(0.5), at(0.75)


def sign_test(wins: int, pairs: int) -> float:
    """Chance of at least ``wins`` wins in ``pairs`` fair coin flips."""
    return sum(math.comb(pairs, k) for k in range(wins, pairs + 1)) / 2**pairs


def verdict(base: Sequence[float], head: Sequence[float], higher_is_better: bool) -> Dict:
    """Medians, IQRs, head wins and the winner (``base``, ``head`` or ``-``)."""
    sign = 1.0 if higher_is_better else -1.0
    b1, b_med, b3 = quartiles(base)
    h1, h_med, h3 = quartiles(head)
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    losses = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    n = len(base)
    needed = math.ceil(WIN_SHARE * n)
    while needed <= n and sign_test(needed, n) > SIGN_TEST_LEVEL:
        needed += 1
    winner = "-"
    if wins >= needed and sign * (h_med - b_med) > b3 - b1:
        winner = "head"
    elif losses >= needed and sign * (b_med - h_med) > h3 - h1:
        winner = "base"
    return {"base_median": b_med, "base_iqr": b3 - b1, "head_median": h_med,
            "head_iqr": h3 - h1, "wins": wins, "pairs": n, "winner": winner}


def metric_directions() -> Dict[str, Tuple[str, bool]]:
    """``{metric: (unit, higher_is_better)}`` from ``BENCHMARK.json``."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m["better"] == "higher")
            for m in declared["end_to_end"] + declared["per_layer"]}


def run_once(tree: pathlib.Path, args) -> Dict:
    """One ``perfbench/run.py`` run in ``tree``; its JSON result line."""
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"ab: perfbench failed in {tree} (exit {done.returncode})")
    return json.loads(lines[-1])


def clear_stale_bytecode(tree: pathlib.Path) -> List[pathlib.Path]:
    """Delete every ``.pyc`` under ``tree`` older than its source; return them."""
    stale = []
    for cached in tree.rglob("__pycache__/*.pyc"):
        source = cached.parent.parent / (cached.name.split(".", 1)[0] + ".py")
        if source.exists() and cached.stat().st_mtime < source.stat().st_mtime:
            cached.unlink()
            stale.append(cached)
    return stale


class Trees:
    """The two trees to compare; removes the worktrees it added."""

    def __init__(self, scratch: pathlib.Path):
        self.scratch = scratch
        self.added: List[pathlib.Path] = []

    def resolve(self, name: str, label: str) -> pathlib.Path:
        path = ROOT if name == "." else pathlib.Path(name)
        if path.is_dir():
            stale = clear_stale_bytecode(path)
            if stale:
                print(f"# {label}: deleted {len(stale)} stale .pyc under {path}", flush=True)
            return path.resolve()
        target = self.scratch / label
        subprocess.run(["git", "worktree", "add", "--detach", str(target), name],
                       cwd=ROOT, check=True, capture_output=True)
        self.added.append(target)
        return target

    def close(self) -> None:
        for target in self.added:
            subprocess.run(["git", "worktree", "remove", "--force", str(target)],
                           cwd=ROOT, check=False, capture_output=True)


def report(runs: Dict[str, List[Dict]], trace: bool) -> List[str]:
    directions = metric_directions()
    lines = [f"{'metric':32} {'base median':>12} {'IQR':>10} {'head median':>12} "
             f"{'IQR':>10} {'change':>8} {'wins':>6}  winner"]
    names = list(runs["base"][0]["metrics"])
    for name in names:
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        head = [r["metrics"][name]["value"] for r in runs["head"]]
        unit, higher = directions.get(name, (runs["base"][0]["metrics"][name]["unit"], False))
        if trace and not any(base + head):
            continue  # a layer this workload does not exercise
        v = verdict(base, head, higher)
        change = (v["head_median"] / v["base_median"] - 1.0) * 100 if v["base_median"] else 0.0
        flag = ""
        if unit == "count" and len(set(base + head)) > 1:
            flag = "  CHANGED"
        lines.append(
            f"{name:32} {v['base_median']:12.6g} {v['base_iqr']:10.4g} "
            f"{v['head_median']:12.6g} {v['head_iqr']:10.4g} {change:+7.1f}% "
            f"{v['wins']:>2}/{v['pairs']:<3}  {v['winner']}{flag}"
        )
    for side in ("base", "head"):
        bad = [r for r in runs[side] if not r["correct"] or r["failed"]]
        lines.append(f"{side}: {len(runs[side]) - len(bad)}/{len(runs[side])} runs "
                     f"correct with 0 failed")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD",
                        help="revision or checkout directory (default HEAD); a directory's "
                        ".pyc files older than their sources are deleted first")
    parser.add_argument("--head", default=".",
                        help="revision or checkout directory (default: this checkout); "
                        "stale .pyc files are deleted as for --base")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--scratch", help="where worktrees go (default: a temporary directory)")
    parser.add_argument("--json", help="also write every run's result here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    scratch = pathlib.Path(args.scratch or tempfile.mkdtemp(prefix="ab-"))
    scratch.mkdir(parents=True, exist_ok=True)
    trees = Trees(scratch)
    runs: Dict[str, List[Dict]] = {"base": [], "head": []}
    try:
        paths = {"base": trees.resolve(args.base, "base"),
                 "head": trees.resolve(args.head, "head")}
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run_once(paths[side], args))
            shown = {s: runs[s][-1]["metrics"].get("requests_per_s", {}).get("value")
                     for s in order}
            print(f"# pair {pair + 1}/{args.pairs} ({order[0]} first): "
                  f"requests_per_s base {shown['base']} head {shown['head']}", flush=True)
    finally:
        trees.close()
        if not args.scratch:
            shutil.rmtree(scratch, ignore_errors=True)
    print(f"{args.workload} seed {args.seed}, {args.seconds:g} s runs, {args.pairs} pairs, "
          f"base {args.base}, head {args.head}, trace {args.trace}")
    print("\n".join(report(runs, bool(args.trace))))
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(
            {"args": vars(args), "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
