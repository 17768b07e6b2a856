"""Smoke test of the benchmark itself, at tiny sizes (under a minute).

    python3 perfbench/smoke.py

Checks that:

1. every workload, untraced and traced, prints exactly the metrics that
   BENCHMARK.json names, each with its unit, and no job fails;
2. a seed gives byte-identical configs, and another seed different ones;
3. tampered outputs are counted as failed jobs, so the checks are not
   vacuous: at least one per command, each changing one cell of one CSV
   file, and one garbled cell;
4. the trace reproduces known call counts: a qg-scan of a 30-cycle (edge
   length 0.1, k from 0.5 to 1.0, 1000 grid points) makes 1035
   coin_operator and 31050 unitarity_defect calls;
5. in a directory holding only BENCHMARK.json and the benchmark, run.py
   exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".perfbench_out", "smoke")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, aggregate  # noqa: E402
from worker import Runner, eigenfunction_job  # noqa: E402

import qgwalk.cli as cli  # noqa: E402


def run_bench(args: list, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def check_metric_names() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for w in spec["workloads"]:
            proc = run_bench(["--workload", w["name"], "--seed", "7", "--seconds", "1",
                              "--trace", str(trace), "--tiny"])
            assert proc.returncode == 0, proc.stderr[-2000:]
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
                proc.stdout[-3000:]
            print(f"ok   {w['name']} --trace {trace}: {len(got)} metrics, "
                  f"{result['attempted']} jobs, none failed")


def check_seeding() -> None:
    for w in workloads.WORKLOADS:
        a, b, c = (json.dumps(workloads.generate(w, s), sort_keys=True) for s in (3, 3, 4))
        assert a == b and a != c, w
    print("ok   same seed gives byte-identical configs, another seed differs")


def _tamper_csv(path: str, row: int, col: int, value: str) -> None:
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


class TamperingCli:
    """Runs the real CLI, then changes one cell of one output file."""

    def __init__(self, name: str, row: int, col: int, edit):
        self.name, self.row, self.col, self.edit = name, row, col, edit

    def main(self, argv: list) -> int:
        rc = cli.main(argv)
        path = os.path.join(argv[argv.index("--out") + 1], self.name)
        with open(path) as fh:
            old = fh.read().splitlines()[self.row].split(",")[self.col]
        _tamper_csv(path, self.row, self.col, self.edit(old))
        return rc


def check_tampering() -> None:
    os.makedirs(WORK, exist_ok=True)
    cases = {
        "walk": ("distribution.csv", 3, 2, lambda x: repr(float(x) + 1e-6)),
        "spectral": ("identities.csv", 1, 3, lambda x: "False"),
        "garbled": ("identities.csv", 1, 1, lambda x: "garbled"),
        "szegedy": ("spectrum.csv", 2, 3, lambda x: repr(float(x) + 1e-6)),
        "scan": ("roots.csv", 1, 0, lambda x: repr(float(x) + 1e-6)),
        "generic scan": ("roots.csv", 2, 0, lambda x: repr(float(x) - 1e-6)),
        "eigenfunction": ("eigenfunction.csv", 5, 3, lambda x: repr(float(x) + 1e-5)),
    }
    jobs = {"walk": workloads.generate("walk", 5, tiny=True)[0],
            "spectral": workloads.generate("spectral", 5, tiny=True)[0],
            "garbled": workloads.generate("spectral", 5, tiny=True)[0],
            "szegedy": workloads.generate("spectral", 5, tiny=True)[1],
            "scan": workloads.generate("scan", 5, tiny=True)[0],
            "generic scan": workloads.generate("scan", 5, tiny=True)[5]}
    for job in jobs.values():
        job["config_path"] = os.path.join(WORK, f"{job['id']}.json")
        with open(job["config_path"], "w") as fh:
            json.dump(job["config"], fh)
    honest = Runner(cli, checks, WORK).run_job(jobs["scan"], 0)
    assert honest["ok"], honest
    k, _ = honest["verdict"].roots[0]
    jobs["eigenfunction"] = eigenfunction_job(jobs["scan"], k, 0, WORK)

    for case, (name, row, col, edit) in cases.items():
        runner = Runner(cli, checks, WORK)
        assert runner.run_job(jobs[case], 0)["ok"], runner.failures
        tampered = Runner(TamperingCli(name, row, col, edit), checks, WORK)
        res = tampered.run_job(jobs[case], 0)
        assert not res["ok"] and len(tampered.failures) == 1, (case, tampered.failures)
        print(f"ok   tampered {name} ({case}) counted as failed: {tampered.failures[0][:90]}")


def check_trace_counts() -> None:
    path = os.path.join(WORK, "cycle30-scan.json")
    with open(path, "w") as fh:
        json.dump({"graph": {"family": "cycle", "n": 30}, "quantum_graph": {"lengths": 0.1},
                   "scan": {"k_min": 0.5, "k_max": 1.0, "grid_points": 1000}}, fh)
    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.main(["qg-scan", "--config", path, "--out", WORK])
    finally:
        tracer.uninstall()
    agg = aggregate(tracer.spans())
    counts = (agg["operators.coin_operator"]["calls"], agg["operators.unitarity_defect"]["calls"])
    assert rc == 0 and counts == (1035, 31050), counts
    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")
    print(f"ok   traced 30-cycle scan: coin_operator x{counts[0]}, unitarity_defect x{counts[1]}")


def check_bare_directory() -> None:
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_bench(["--workload", "walk", "--seed", "1", "--seconds", "1", "--trace", "0"],
                     cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok   without the sources run.py exits {proc.returncode} and prints no result")


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        check_seeding()
        check_tampering()
        check_trace_counts()
        check_bare_directory()
        check_metric_names()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
