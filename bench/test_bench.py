"""Self-test of the benchmark: its smoke mode must find no problem.

Run from the root of the checkout: ``python3 -m pytest bench/test_bench.py -q``.
Smoke mode runs every workload at tiny size, once end to end and twice
traced, and reports any metric missing or with the wrong unit, any failed
op, and any count that differs between the two traced runs on one seed.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402


def test_smoke_finds_no_problem():
    assert run.smoke(seed=7) == []
