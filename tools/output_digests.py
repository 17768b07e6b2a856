"""Run every shipped and benchmark config through the CLI and hash what it writes.

    python3 tools/output_digests.py [--checkout DIR] > digests.txt

The program run is ``DIR/src/qgwalk`` (by default the checkout holding this
script), one CLI process per job, in a temporary directory, with one BLAS
thread.  The configs, test helpers and benchmark workloads are always this
checkout's, so two checkouts get the same inputs.  The jobs are:

* every ``configs/*.json``, run as the command ``tests/helpers.config_command``
  names for it;
* every job ``perfbench/workloads.generate`` makes for the three workloads at
  ``SEED``, the benchmark's held-out seed (``perfbench/README.md``);
* one ``qg-eigenfunction`` per root of each ``roots.csv`` written above,
  configured by ``perfbench/worker.eigenfunction_job``;
* ``partitions`` on K4.

It prints one line per output file, ``sha256 exit-code relative-path``,
sorted by path; a job that writes no file prints ``- exit-code job-dir/``.
Two checkouts give the same listing exactly when every job exits with the
same code and writes the same bytes, so a refactor is checked with one diff:

    python3 tools/output_digests.py --checkout ../parent > parent.txt
    python3 tools/output_digests.py > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True  # leave no __pycache__ in the directories imported below
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "tests", "perfbench")]

from checks import read_csv  # noqa: E402
from helpers import config_command  # noqa: E402
from run import BLAS_THREADS, BLAS_VARS  # noqa: E402
from worker import eigenfunction_job  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SEED = 90317
K4_PARTITIONS = {"graph": {"family": "complete", "n": 4}, "partitions": {}}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Runner:
    """Runs CLI jobs of one checkout into ``work/out`` and records their exit codes."""

    def __init__(self, checkout: str, work: str):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
                        **{var: str(BLAS_THREADS) for var in BLAS_VARS})
        self.work = work
        self.configs = os.path.join(work, "configs")
        os.makedirs(self.configs)
        self.codes: dict[str, int] = {}

    def config_path(self, name: str, config: dict) -> str:
        """A config written as the benchmark writes it."""
        path = os.path.join(self.configs, f"{name}.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(config, indent=1, sort_keys=True) + "\n")
        return path

    def run(self, rel: str, command: str, config_path: str) -> str:
        out = os.path.join(self.work, "out", rel)
        os.makedirs(out)
        self.codes[rel] = subprocess.run(
            [sys.executable, "-m", "qgwalk", command, "--config", config_path, "--out", out],
            env=self.env, cwd=self.work, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL).returncode
        return out

    def scan(self, rel: str, scan_job: dict, config_path: str) -> None:
        """The scan, then one qg-eigenfunction job per root it reports."""
        out = self.run(rel, "qg-scan", config_path)
        roots = os.path.join(out, "roots.csv")
        if not os.path.exists(roots):
            return
        for root_no, (k, *_) in enumerate(read_csv(roots)[1]):
            follow = eigenfunction_job(scan_job, float(k), root_no, self.configs)
            self.run(f"{os.path.dirname(rel)}/{follow['id']}", follow["command"],
                     follow["config_path"])

    def listing(self) -> list[str]:
        lines = []
        for rel, code in self.codes.items():
            out = os.path.join(self.work, "out", rel)
            names = sorted(os.listdir(out))
            lines += [f"{_sha256(os.path.join(out, n))} {code} {rel}/{n}" for n in names]
            if not names:
                lines.append(f"- {code} {rel}/")
        return sorted(lines, key=lambda line: line.split(" ", 2)[2])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--checkout", default=ROOT, help="checkout whose src/qgwalk is run")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="qgwalk-digests-") as work:
        runner = Runner(os.path.abspath(args.checkout), work)
        config_dir = os.path.join(ROOT, "configs")
        for name in sorted(os.listdir(config_dir)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(config_dir, name)
            with open(path) as fh:
                config = json.load(fh)
            stem, command = name[:-len(".json")], config_command(config)
            if command == "qg-scan":
                runner.scan(f"configs/{stem}", {"id": stem, "config": config, "meta": {}}, path)
            else:
                runner.run(f"configs/{stem}", command, path)
        for workload in WORKLOADS:
            for job in generate(workload, SEED):
                path = runner.config_path(job["id"], job["config"])
                if job["command"] == "qg-scan":
                    runner.scan(f"bench/{job['id']}", job, path)
                else:
                    runner.run(f"bench/{job['id']}", job["command"], path)
        k4 = runner.config_path("partitions-k4", K4_PARTITIONS)
        runner.run("partitions-k4", "partitions", k4)
        print("\n".join(runner.listing()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
