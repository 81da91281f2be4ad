"""Bench-regression gate: fail CI when the hot paths get meaningfully slower.

Runs a fresh quick perf report (``perf_report.run_report``) and compares it
against the committed ``BENCH_sweep.json`` baseline::

    make bench-check           # or: python benchmarks/check_regression.py
    python benchmarks/check_regression.py --fresh fresh.json --repeats 2

Two checks, both coarse tripwires rather than a microbenchmark suite:

* **Timing.**  Every baseline bench must be in the fresh report, and its
  fresh/baseline time ratio must stay within ``perf_report.MAX_SLOWDOWN``.
  Fresh timings are first divided by the ratio of the two reports'
  ``calibration_seconds`` (a fixed spin loop timed on each machine), so a
  baseline from a faster or slower box still gates correctly; both sides
  are padded by ``perf_report.NOISE_FLOOR_SECONDS``.
* **Gate rows.**  Each bench in ``perf_report.BENCHES`` declares its own
  invariants beside itself — ``verified`` self-checks, detail bounds,
  detail-vs-detail bounds and same-report time ratios — and every row must
  pass on the fresh report.  A missing value fails its row.

Exit status: 0 when every check passes, 1 on any failure, 2 on a
malformed/missing baseline or fresh report.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Tuple

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT))

from benchmarks import perf_report  # noqa: E402

#: Default committed baseline, regenerated via ``make bench-json``.
DEFAULT_BASELINE = _REPO_ROOT / "BENCH_sweep.json"


def calibration_ratio(fresh: Dict, baseline: Dict) -> float:
    """How much faster the fresh machine is than the baseline machine.

    Returns ``fresh_calibration / baseline_calibration`` (>1 means the
    fresh machine is *slower*), or 1.0 when either report predates the
    calibration field.
    """
    fresh_cal = fresh.get("calibration_seconds")
    base_cal = baseline.get("calibration_seconds")
    if not fresh_cal or not base_cal:
        return 1.0
    return float(fresh_cal) / float(base_cal)


def compare(
    fresh: Dict, baseline: Dict, threshold: float = perf_report.MAX_SLOWDOWN
) -> Tuple[List[str], List[str]]:
    """Gate a fresh report against a baseline.

    Returns ``(lines, failures)``: human-readable per-bench report lines,
    and the subset describing failures (empty means the gate passes).
    """
    lines: List[str] = []
    failures: List[str] = []
    scale = calibration_ratio(fresh, baseline)
    lines.append(f"calibration ratio (fresh/baseline): {scale:.3f}")
    fresh_benches = fresh.get("benches", {})
    for name, base_entry in sorted(baseline.get("benches", {}).items()):
        fresh_entry = fresh_benches.get(name)
        if fresh_entry is None:
            failures.append(f"{name}: missing from fresh report")
            lines.append(failures[-1])
            continue
        base_seconds = float(base_entry["seconds"])
        fresh_seconds = float(fresh_entry["seconds"]) / scale
        ratio = perf_report.padded_ratio(fresh_seconds, base_seconds)
        verdict = "ok" if ratio <= threshold else f"REGRESSION (> {threshold:.1f}x)"
        lines.append(
            f"{name:28s} base {base_seconds * 1000:9.2f} ms   "
            f"fresh {fresh_seconds * 1000:9.2f} ms   x{ratio:5.2f}   {verdict}"
        )
        if ratio > threshold:
            failures.append(f"{name}: {ratio:.2f}x slower than baseline")
    for name, bench in perf_report.BENCHES.items():
        for gate in bench.gates:
            ok, text = gate.check(name, fresh_benches)
            if ok:
                lines.append(f"{name:28s}   {text}   ok")
            else:
                failures.append(f"{name}: {text}")
                lines.append(failures[-1])
    return lines, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=DEFAULT_BASELINE,
        help="committed baseline report (default: BENCH_sweep.json)",
    )
    parser.add_argument(
        "--fresh",
        type=pathlib.Path,
        default=None,
        help="precomputed fresh report; omit to run the benches now",
    )
    parser.add_argument(
        "--repeats", type=int, default=2, help="best-of repetitions per bench"
    )
    args = parser.parse_args(argv)

    try:
        baseline = json.loads(args.baseline.read_text())
    except (OSError, ValueError) as exc:
        print(f"cannot read baseline {args.baseline}: {exc}", file=sys.stderr)
        return 2

    if args.fresh is not None:
        try:
            fresh = json.loads(args.fresh.read_text())
        except (OSError, ValueError) as exc:
            print(f"cannot read fresh report {args.fresh}: {exc}", file=sys.stderr)
            return 2
    else:
        fresh = perf_report.run_report(max(1, args.repeats))

    lines, failures = compare(fresh, baseline)
    print("\n".join(lines))
    if failures:
        print(f"\nbench gate FAILED ({len(failures)} issue(s)):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbench gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
