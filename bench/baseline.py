#!/usr/bin/env python3
"""Re-measure the single-request baselines of the ROADMAP table.

    python3 bench/baseline.py

Each row is one request timed from parsing to the last digit, median of
``REPEATS`` runs, printed as ``name seconds``.  These are larger than the
requests of the closed-loop workloads (a 1000-digit product alone takes
most of a second), so they live here rather than in ``run.py``.
"""

import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

REPEATS = 3

# (name, request) pairs; the exact values feed the same oracles as run.py
ROWS = (
    ("0.(3)*0.(3) @500", ("render", "0.(3)*0.(3)", Fraction(1, 9), 500)),
    ("0.(3)*0.(3) @1000", ("render", "0.(3)*0.(3)", Fraction(1, 9), 1000)),
    ("0.(3)*0.(3) @2000", ("render", "0.(3)*0.(3)", Fraction(1, 9), 2000)),
    ("0.(3)*0.(3)*0.(3)*0.(3) @500", ("render", "0.(3)*0.(3)*0.(3)*0.(3)", Fraction(1, 81), 500)),
    ("0.(3)+0.(142857) @2000", ("render", "0.(3)+0.(142857)", Fraction(10, 21), 2000)),
    ("1/7 render @20000", ("render", "1/7", Fraction(1, 7), 20000)),
    ("padic 7: 1/3*-2/9 @2000", ("padic", "1/3*-2/9", Fraction(-2, 27), 2000)),
)


def main():
    run.use_checkout_sources()
    client = run.Client()
    ok = True
    for name, (kind, expr, value, digits) in ROWS:
        req = workloads.Request(name, kind, expr, value, digits=digits, p=7 if kind == "padic" else 0)
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            outcome = client.execute(req)
            times.append(time.perf_counter() - t0)
            ok = ok and outcome.output == run.expected_output(req)
        print(f"{name:32s} {statistics.median(times):.3f} s")
    if not ok:
        print("baseline: an output disagreed with the oracle", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
