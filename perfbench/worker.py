"""Runs one workload in a fresh process: passes over its jobs, timed and checked.

Started by run.py with the environment it chose (BLAS threads, no
QGWALK_THREADS, PYTHONPATH on the checkout's src).  Every job is one call
of ``qgwalk.cli.main([...])`` with a fresh output directory; only that call
is timed.  Checking, directory handling and config writing happen outside
the timed region.

Untraced mode (``--trace 0``) runs plain passes.  Traced mode alternates a
plain pass and a traced pass, so the tracing overhead is measured within
the same process.  Passes repeat until the next one would end after
``--seconds``, with at least two.  Results go to ``--result`` as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import traceback
from time import perf_counter


def _digest(out: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out)):
        h.update(name.encode())
        with open(os.path.join(out, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Runner:
    def __init__(self, cli, checks, work: str, tracer=None):
        self.cli = cli
        self.checks = checks
        self.work = work
        self.tracer = tracer
        self.digests: dict[str, str] = {}
        self.failures: list[str] = []

    def run_job(self, job: dict, index: int) -> dict:
        """One CLI call in a fresh directory, then its check."""
        out = tempfile.mkdtemp(prefix="job-", dir=self.work)
        argv = [job["command"], "--config", job["config_path"], "--out", out]
        if self.tracer is not None:
            self.tracer.job = index
        error = None
        t0 = perf_counter()
        try:
            rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a job that raises counts as failed; the pass goes on
            rc = None
            error = traceback.format_exc(limit=3)
        seconds = perf_counter() - t0
        verdict = None
        if error is None:
            try:
                verdict = self.checks.check(job, out, rc)
            except (ValueError, IndexError, KeyError) as exc:
                error = f"unreadable output: {exc!r}"
        problems = [error] if verdict is None else verdict.problems
        digest = _digest(out)
        if self.digests.setdefault(job["id"], digest) != digest:
            problems.append("output differs from the first pass")
        shutil.rmtree(out)
        if problems:
            self.failures.append(f"{job['id']}: {'; '.join(p.strip() for p in problems)[:500]}")
        return {"id": job["id"], "class": job["class"], "seconds": seconds,
                "ok": not problems, "verdict": verdict}

    def run_pass(self, jobs: list, configs: str) -> list:
        results = []
        for job in jobs:
            res = self.run_job(job, len(results))
            results.append(res)
            if job["command"] == "qg-scan" and res["verdict"] is not None:
                for root_no, (k, _mult) in enumerate(res["verdict"].roots):
                    follow = eigenfunction_job(job, k, root_no, configs)
                    results.append(self.run_job(follow, len(results)))
        return results


def eigenfunction_job(scan_job: dict, k: float, root_no: int, configs: str) -> dict:
    """The qg-eigenfunction job for one reported root.  Its config is the same
    on every pass, because the scan output is; a change shows as a failure."""
    config = {"graph": scan_job["config"]["graph"],
              "quantum_graph": scan_job["config"]["quantum_graph"],
              "eigenfunction": {"k": k}}
    job_id = f"{scan_job['id']}-root{root_no:02d}"
    path = os.path.join(configs, f"{job_id}.json")
    text = json.dumps(config, indent=1, sort_keys=True) + "\n"
    try:
        with open(path) as fh:
            current = fh.read()
    except FileNotFoundError:
        current = None
    # rewriting a file in place makes ext4 flush it, which would slow the next job
    if current != text:
        with open(path, "w") as fh:
            fh.write(text)
    return {"id": job_id, "class": "eigenfunction", "command": "qg-eigenfunction",
            "config": config, "config_path": path, "meta": scan_job["meta"]}


def pass_counts(results: list) -> dict:
    counts = {"rows_written": 0, "grid_points": 0, "pole_nan": 0,
              "roots": 0, "roots_expected": 0}
    for res in results:
        verdict = res["verdict"]
        if verdict is None:
            continue
        counts["rows_written"] += verdict.rows
        for key, val in verdict.counts.items():
            counts[key] += val
    return counts


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--manifest", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    t0 = perf_counter()
    import qgwalk.cli as cli
    import_s = perf_counter() - t0
    src = os.path.realpath(args.src)
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"imported qgwalk from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    import checks
    from tracer import Tracer, aggregate

    with open(args.manifest) as fh:
        manifest = json.load(fh)
    jobs = manifest["jobs"]
    configs = os.path.dirname(os.path.abspath(args.manifest))
    work = tempfile.mkdtemp(prefix="out-", dir=configs)
    tracer = Tracer() if args.trace else None
    runner = Runner(cli, checks, work, tracer)
    passes, spans = [], None
    start = perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            if traced:
                tracer.clear()
                tracer.install()
            try:
                results = runner.run_pass(jobs, configs)
            finally:
                if traced:
                    tracer.uninstall()
            record = {"traced": traced, "wall_s": sum(r["seconds"] for r in results),
                      "jobs": [{k: r[k] for k in ("id", "class", "seconds", "ok")}
                               for r in results],
                      "counts": pass_counts(results)}
            if traced:
                spans = tracer.spans()
                tracer.clear()
                record["layers"] = aggregate(spans)
                record["spans"] = int(spans["start"].size)
            passes.append(record)
            elapsed = perf_counter() - start
            mean_pass = elapsed / len(passes)
            if len(passes) >= 2 and elapsed + mean_pass > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    import numpy as np
    if spans is not None and args.spans:
        np.savez(args.spans, **spans)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "import_s": import_s,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "measured_s": perf_counter() - start,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
        "failures": runner.failures[:50],
        "qgwalk_file": cli.__file__,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
