"""The verdicts of ``tools/bench_pairs.py``, on synthetic pairs of benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

STEADY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]  # quartiles 0.9925, 1.0075
SPREAD = [1.0, 2.0, 1.5, 1.0, 2.0, 1.5, 1.0, 2.0, 1.5, 1.5]  # quartiles 1.125, 1.875


@pytest.mark.parametrize("better,parent,change,verdict", [
    # every pair won, by far more than the parent's spread
    ("lower", STEADY, [0.8 * x for x in STEADY], "gain"),
    ("higher", STEADY, [1.2 * x for x in STEADY], "gain"),
    # nine of ten pairs won is enough, eight is not
    ("lower", STEADY, [0.8 * x for x in STEADY[:9]] + [1.5], "gain"),
    ("lower", STEADY, [0.8 * x for x in STEADY[:8]] + [1.5, 1.5], "-"),
    # every pair won, but by less than the parent's spread
    ("lower", STEADY, [x - 0.005 for x in STEADY], "-"),
    # worse by more than the bound, 20% of the parent's median
    ("lower", STEADY, [1.3 * x for x in STEADY], "worse"),
    ("higher", STEADY, [0.7 * x for x in STEADY], "worse"),
    # worse, but within the bound
    ("lower", STEADY, [1.1 * x for x in STEADY], "-"),
    # the parent's spread is wider than the bound and the runs overlap
    ("lower", SPREAD, [x * 0.9 for x in SPREAD], "unresolved"),
    ("lower", SPREAD, [x * 1.5 for x in SPREAD], "unresolved"),
    # as wide, but every change run beats, or loses to, every parent run
    ("lower", SPREAD, [0.5] * 10, "gain"),
    ("lower", SPREAD, [3.0] * 10, "worse"),
    ("higher", SPREAD, [3.0] * 10, "gain"),
])
def test_report_gives_each_verdict(capsys, better, parent, change, verdict):
    spec = {"job1_s": {"name": "job1_s", "better": better, "bound": 0.2}}
    bench_pairs.report([({"walk.job1_s": p}, {"walk.job1_s": c})
                        for p, c in zip(parent, change)], spec)
    line, = (row for row in capsys.readouterr().out.splitlines()
             if row.startswith("walk.job1_s"))
    assert line.split()[-1] == verdict
