"""qgwalk benchmark: CLI jobs generated from a seed, timed, checked and traced.

    python3 perfbench/run.py --workload walk|scan|spectral|all --seed N \
        --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout.  The program is the checkout's own
``src/qgwalk``; nothing needs building.  Steps:

1. generate the workload's configs from ``--seed`` (byte-identical per seed);
2. time ``import qgwalk.cli`` in several fresh processes (``setup_s``);
3. start one fresh worker process that runs only this workload, as a closed
   loop of one client and one job at a time, for about ``--seconds``;
4. print a report, and as the last line one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
   ``--trace 0``, the per-layer metrics with ``--trace 1``.

Run hygiene: the worker gets one BLAS thread (see BLAS_THREADS), has
QGWALK_THREADS removed, and writes every job into a fresh directory under
``.perfbench_out/``.  The full record of a run, environment included, is
written to ``.perfbench_out/<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# One BLAS thread.  With the default two OpenBLAS threads on a 2-core machine
# shared with other tenants, repeats of one job spread by up to 50% (verify on
# K25: 1.16-1.73 s); with one thread every job stays within a few percent.
# The price is slower dense jobs (the 2000-arc evolve takes about 4 s, not 2.4 s).
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 11
PROBE = "import time; t = time.perf_counter(); import qgwalk.cli; print(time.perf_counter() - t)"
TIME_LIMIT_S = 170.0

LAYER_SUMS = {
    "operators.residuals.self_s": (
        "operators.shift_duality_residual", "operators.inverse_walk_residual",
        "operators.partition_change_residual", "operators.g_type_reduction_residual",
        "operators.a_type_reduction_residual", "operators.adjacency_support_report",
        "operators.line_digraph_adjacency"),
    "quantum_graph.eigen.self_s": (
        "quantum_graph.stationary_vector", "quantum_graph.sample_eigenfunction",
        "quantum_graph.boundary_condition_report", "quantum_graph.stationarity_equivalences"),
}
LAYER_SELF = ("operators.evolution", "operators.shift_operator", "operators.coin_operator",
              "operators.CoinSet.validate", "operators.unitarity_defect",
              "operators.operator_norm", "coins.quantum_graph_coins", "dynamics.evolve",
              "dynamics.finding_probability", "szegedy.szegedy_spectrum",
              "szegedy.compare_spectra", "szegedy.random_reversible_transition",
              "szegedy.direct_spectrum", "quantum_graph.scan_roots",
              "quantum_graph.reduced_secular_determinant", "cli.main")
LAYER_CALLS = ("operators.evolution", "operators.shift_operator", "operators.coin_operator",
               "operators.CoinSet.validate", "operators.unitarity_defect",
               "operators.operator_norm", "coins.quantum_graph_coins", "dynamics.evolve",
               "dynamics.finding_probability", "szegedy.szegedy_walk",
               "quantum_graph.reduced_secular_determinant")
PASS_COUNTS = {"quantum_graph.grid_points": "grid_points", "quantum_graph.pole_nan": "pole_nan",
               "quantum_graph.roots": "roots", "quantum_graph.roots_expected": "roots_expected",
               "cli.rows_written": "rows_written"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QGWALK_THREADS"}
    env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    env["PYTHONPATH"] = SRC
    return env


def source_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown (not a git work tree)"


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qgwalk")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def write_inputs(workload: str, seed: int, tiny: bool, run_dir: str) -> tuple[str, str]:
    """Write every config and the manifest; returns (manifest path, inputs sha256)."""
    jobs = workloads.generate(workload, seed, tiny)
    digest = hashlib.sha256()
    for job in jobs:
        text = json.dumps(job["config"], indent=1, sort_keys=True) + "\n"
        job["config_path"] = os.path.join(run_dir, f"{job['id']}.json")
        with open(job["config_path"], "w") as fh:
            fh.write(text)
        digest.update(text.encode())
    manifest = os.path.join(run_dir, "manifest.json")
    with open(manifest, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "jobs": jobs}, fh)
    return manifest, digest.hexdigest()


def measure_setup(env: dict) -> list:
    """Import time of qgwalk.cli in fresh processes, after one untimed import
    that leaves the bytecode cache as an installed package would have it."""
    cmd = [sys.executable, "-c", PROBE]
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=60)
    return [float(subprocess.run(cmd, env=env, check=True, capture_output=True,
                                 text=True, timeout=60).stdout)
            for _ in range(SETUP_PROBES)]


def tail(samples: list) -> str:
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p / 100.0 * n)
        if rank >= 1 and n - rank >= 10:
            return f"p{p:g} {ordered[rank - 1]:.4f}"
    return "no percentile has 10 samples beyond it"


def end_to_end(workload: str, setup: list, result: dict) -> tuple[dict, list]:
    plain = [p for p in result["passes"] if not p["traced"]]
    samples = {cls: [] for cls in workloads.JOB_CLASSES[workload]}
    for p in plain:
        for job in p["jobs"]:
            samples[job["class"]].append(job["seconds"])
    job1, job2 = samples.values()
    timings = {"setup_s": setup, "wall_s": [p["wall_s"] for p in plain],
               "job1_s": job1, "job2_s": job2}
    metrics = {name: {"value": median(vals), "unit": "s"} for name, vals in timings.items()}
    metrics["peak_rss_mib"] = {"value": result["peak_rss_mib"], "unit": "MiB"}
    shown = dict(zip(("job1_s", "job2_s"), (f"{cls}_s" for cls in samples)))
    lines = []
    for name, vals in timings.items():
        alias = f"   (reported as {name})" if name in shown else ""
        lines.append(f"{workload:9s} {shown.get(name, name):17s} median {median(vals):.4f} s   "
                     f"{tail(vals)}   n={len(vals)}{alias}")
    lines.append(f"{workload:9s} {'peak_rss_mib':17s} {result['peak_rss_mib']:.1f} MiB")
    return metrics, lines


def per_layer(result: dict) -> tuple[dict, list]:
    plain = [p["wall_s"] for p in result["passes"] if not p["traced"]]
    traced = [p for p in result["passes"] if p["traced"]]

    def self_s(names):
        return median(sum(p["layers"].get(n, {}).get("self_s", 0.0) for n in names)
                      for p in traced)

    metrics = {}
    for name in LAYER_SELF:
        metrics[f"{name}.self_s"] = {"value": self_s([name]), "unit": "s"}
    for name in LAYER_CALLS:
        metrics[f"{name}.calls"] = {
            "value": int(median(p["layers"].get(name, {}).get("calls", 0) for p in traced)),
            "unit": "count"}
    for name, parts in LAYER_SUMS.items():
        metrics[name] = {"value": self_s(parts), "unit": "s"}
    graphs = sorted(n for n in traced[0]["layers"] if n.startswith("graphs."))
    metrics["graphs.self_s"] = {"value": self_s(graphs), "unit": "s"}
    counts = traced[0]["counts"]
    for name, key in PASS_COUNTS.items():
        metrics[name] = {"value": counts[key], "unit": "count"}
    scan_total = median(p["layers"].get("quantum_graph.scan_roots", {}).get("total_s", 0.0)
                        for p in traced)
    metrics["quantum_graph.per_point_s"] = {
        "value": scan_total / counts["grid_points"] if counts["grid_points"] else 0.0,
        "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": median(p["wall_s"] for p in traced) - median(plain), "unit": "s"}
    metrics["trace.spans"] = {"value": int(median(p["spans"] for p in traced)), "unit": "count"}

    lines = [f"  {name:52s} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    top = {}
    for p in traced:
        for name, agg in p["layers"].items():
            top.setdefault(name, []).append(agg["self_s"])
    lines.append("  top self time per traced pass (median):")
    for name, vals in sorted(top.items(), key=lambda kv: -median(kv[1]))[:12]:
        lines.append(f"    {name:50s} {median(vals):.4f} s")
    return metrics, lines


def run_workload(workload: str, args, env: dict, deadline: float) -> dict:
    run_dir = tempfile.mkdtemp(prefix=f"run-{workload}-", dir=OUT)
    try:
        manifest, inputs_sha = write_inputs(workload, args.seed, args.tiny, run_dir)
        setup = measure_setup(env)
        result_path = os.path.join(run_dir, "result.json")
        spans_path = os.path.join(OUT, f"{workload}-spans.npz")
        cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--manifest", manifest,
               "--src", SRC, "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--result", result_path, "--spans", spans_path]
        # the worker's own output goes to stderr: stdout ends with the result line
        subprocess.run(cmd, env=env, check=True, stdout=sys.stderr,
                       timeout=max(10.0, deadline - time.monotonic()))
        with open(result_path) as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    result.update({
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "setup_s": setup,
        "inputs_sha256": inputs_sha,
        "environment": {
            "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "blas_threads": {var: env[var] for var in BLAS_VARS},
            "blas_threads_why": "1 thread: repeat spread of a few percent instead of up to "
                                "50% with 2 threads on the shared 2-core machine",
            "QGWALK_THREADS": "unset in the worker" + (
                f" (the caller's {os.environ['QGWALK_THREADS']!r} was removed)"
                if "QGWALK_THREADS" in os.environ else ""),
            "commit": source_commit(),
            "source_sha256": source_digest(),
        },
    })
    with open(os.path.join(OUT, f"{workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def summarize(workload: str, trace: int, result: dict) -> tuple[dict, int, int]:
    jobs = [j for p in result["passes"] for j in p["jobs"]]
    failed = sum(not j["ok"] for j in jobs)
    env = result["environment"]
    print(f"{workload}: seed {result['seed']}, {len(result['passes'])} passes in "
          f"{result['measured_s']:.1f} s, inputs sha256 {result['inputs_sha256'][:12]}")
    print(f"  {env['cpu_count']} cores ({env['cpus_usable']} usable), BLAS {result['blas']} "
          f"x{BLAS_THREADS} thread, numpy {result['numpy']}, Python {env['python']}, "
          f"QGWALK_THREADS {env['QGWALK_THREADS']}, commit {env['commit'][:12]}, "
          f"source {env['source_sha256'][:12]}")
    print(f"{workload:9s} {'fail_ratio':17s} {failed / len(jobs):.4g} ratio   "
          f"({failed} of {len(jobs)} jobs failed)")
    for line in result["failures"][:10]:
        print(f"  FAILED {line}")
    if trace:
        metrics, lines = per_layer(result)
    else:
        metrics, lines = end_to_end(workload, result["setup_s"], result)
    for line in lines:
        print(line)
    return metrics, len(jobs), failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "qgwalk", "cli.py")):
        return fail(f"no qgwalk sources under {SRC}; run from a qgwalk checkout")
    env = worker_env()
    os.makedirs(OUT, exist_ok=True)

    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for workload in chosen:
        try:
            result = run_workload(workload, args, env, time.monotonic() + TIME_LIMIT_S)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as exc:
            return fail(f"{workload} did not complete: {exc}")
        got, n_jobs, n_failed = summarize(workload, args.trace, result)
        attempted += n_jobs
        failed += n_failed
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update({prefix + name: m for name, m in got.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
