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
* ``partitions`` on K4 and on a 6-vertex graph with degrees 4, 2, 2, 2, 1, 1
  (192 partitions), so that an enumeration order over mixed degrees is hashed,
  and on one with degrees 4, 4, 3, 3, 2, 2 (82,944 partitions), whose CSV
  spans two of the CLI's 65,536-row blocks;
* on a 9-vertex graph with every degree from 1 to 5, ``evolve`` once per
  coin family (``identity``, ``grover``, ``random``, ``szegedy``,
  ``quantum-graph`` with a Dirichlet vertex, ``projector`` with non-uniform
  weights, ``explicit``) and ``verify`` with random coins, so that coins of
  several sizes in one set are hashed on every route;
* ``szegedy`` on two trees, a 5-leaf star with a seeded chain and a uniform
  6-vertex path, whose spectra drop a copy of the discriminant's +1 and -1;
* ``qg-eigenfunction`` of ``configs/k2_eigenfunction.json`` at k = 1.0, off
  every root, which exits 1 and still writes its CSVs;
* ``qg-scan`` of a Neumann interval of length pi at k = 1, 1.5, ..., 4, whose
  grid hits the reduced determinant's poles at every integer k (``nan``
  reduced columns there), then one ``qg-eigenfunction`` per root.

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
import cmath
import hashlib
import json
import math
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
MIXED_PARTITIONS = {"graph": {"vertices": 6, "edges": [[1, 2], [1, 3], [1, 4], [1, 5], [2, 3],
                                                      [4, 6]]},
                    "partitions": {}}
LARGE_PARTITIONS = {"graph": {"vertices": 6, "edges": [[1, 2], [1, 3], [1, 4], [1, 5], [2, 3],
                                                      [2, 4], [2, 5], [3, 6], [4, 6]]},
                    "partitions": {}}
# degrees 5, 2, 3, 3, 2, 2, 2, 2, 1 in vertex order
MIXED_GRAPH = {"vertices": 9, "edges": [[1, 2], [1, 3], [1, 4], [1, 5], [1, 6], [2, 3], [3, 4],
                                        [4, 7], [5, 8], [6, 9], [7, 8]]}


def _degrees(graph: dict) -> list:
    return [sum(v in e for e in graph["edges"]) for v in range(1, graph["vertices"] + 1)]


def _pair(z: complex) -> list:
    return [z.real, z.imag]


def mixed_degree_jobs() -> list:
    """(name, command, config) for the jobs on ``MIXED_GRAPH``."""
    degrees = _degrees(MIXED_GRAPH)
    edges = list(enumerate(MIXED_GRAPH["edges"]))
    qg = {"lengths": {f"{u},{v}": 0.5 + 0.1 * i for i, (u, v) in edges},
          "lambdas": {str(v): ("dirichlet" if v == 9 else 0.3 * (v % 3))
                      for v in range(1, len(degrees) + 1)},
          "potentials": {f"{v},{u}": 0.25 * (i % 3) for i, (u, v) in edges}}
    # a unit weight vector with distinct moduli and phases at each vertex
    weights = {}
    for v, d in enumerate(degrees, start=1):
        w = [(m + 1) * cmath.exp(0.7j * m * v) for m in range(d)]
        nrm = math.sqrt(sum(abs(x) ** 2 for x in w))
        weights[str(v)] = [_pair(x / nrm) for x in w]
    # the discrete Fourier matrix of each degree, rows rotated by the vertex label
    blocks = {str(v): [[_pair(cmath.exp(2j * math.pi * ((r + v) % d) * c / d) / math.sqrt(d))
                        for c in range(d)] for r in range(d)]
              for v, d in enumerate(degrees, start=1)}
    families = {
        "identity": {"family": "identity"},
        "grover": {"family": "grover"},
        "random": {"family": "random", "seed": 11},
        "szegedy": {"family": "szegedy", "transition": {"random_seed": 5}},
        "quantum-graph": {"family": "quantum-graph", "k": 2.3},
        "projector": {"family": "projector", "k": 1.7, "weights": weights},
        "explicit": {"family": "explicit", "blocks": blocks},
    }
    jobs = []
    for i, (family, coins) in enumerate(families.items()):
        walk = {"kind": "GA"[i % 2], "partition": {"random_seed": 3 + i}, "coins": coins}
        jobs.append((f"evolve-{family}", "evolve",
                     {"graph": MIXED_GRAPH, "quantum_graph": qg, "walk": walk,
                      "evolve": {"steps": 12, "initial": {"arc": [1, 2]}}}))
    jobs.append(("verify-random", "verify",
                 {"graph": MIXED_GRAPH, "verify": {"steps": 3},
                  "walk": {"partition": {"random_seed": 4},
                           "coins": {"family": "random", "seed": 7}}}))
    return jobs


def tree_and_off_root_jobs() -> list:
    """(name, command, config) for the Szegedy trees, the off-root eigenfunction
    and the pole-hitting scan."""
    with open(os.path.join(ROOT, "configs", "k2_eigenfunction.json")) as fh:
        off_root = json.load(fh)
    off_root["eigenfunction"]["k"] = 1.0
    return [
        ("szegedy-star5", "szegedy",
         {"graph": {"family": "star", "n": 6}, "szegedy": {"transition": {"random_seed": 3}}}),
        ("szegedy-path6", "szegedy",
         {"graph": {"family": "path", "n": 6}, "szegedy": {"transition": "uniform"}}),
        ("eigenfunction-off-root", "qg-eigenfunction", off_root),
        ("scan-interval-poles", "qg-scan",
         {"graph": {"family": "path", "n": 2}, "quantum_graph": {"lengths": math.pi},
          "scan": {"k_min": 1.0, "k_max": 4.0, "grid_points": 7}}),
    ]


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
        for name, config in (("partitions-k4", K4_PARTITIONS),
                             ("partitions-mixed", MIXED_PARTITIONS),
                             ("partitions-large", LARGE_PARTITIONS)):
            runner.run(name, "partitions", runner.config_path(name, config))
        for name, command, config in mixed_degree_jobs():
            runner.run(f"mixed/{name}", command, runner.config_path(f"mixed-{name}", config))
        for name, command, config in tree_and_off_root_jobs():
            path = runner.config_path(f"extra-{name}", config)
            if command == "qg-scan":
                runner.scan(f"extra/{name}", {"id": name, "config": config, "meta": {}}, path)
            else:
                runner.run(f"extra/{name}", command, path)
        print("\n".join(runner.listing()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
