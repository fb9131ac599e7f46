"""
qwalk2d benchmark: one command, three workloads.

    python3 perfbench/run.py --workload grover-exact --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  Each run starts fresh processes: SETUP_PROBES that only time
set-up, then one worker that times whole rounds of the workload for
`--seconds`, checks every output and reports.  The last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`:
the end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  Exits 2 without a result when the program or a worker is
missing or fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grover-exact", "spreading-exact", "lattice-evolution")
#: Fresh processes that only time set-up; the worker's own set-up is one more sample.
SETUP_PROBES = 6
#: A run must end within this many seconds of its start.
RUN_LIMIT_S = 175.0
#: BLAS and OpenMP threads, held to the machine's two cores; the program's
#: own block-parallel pool is held to one thread, so load comes from one thread.
THREADS = {"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": "2",
           "QWALK2D_THREADS": "1"}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, workdir: pathlib.Path, deadline: float, setup_only: bool) -> dict:
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", str(workdir)]
    if setup_only:
        command.append("--setup-only")
    completed = subprocess.run(
        command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()), check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {completed.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "qwalk2d" / "__init__.py").is_file():
        print(f"error: no qwalk2d sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        setup_samples = []
        if not args.trace:
            for probe in range(SETUP_PROBES):
                result = run_worker(args, workdir / f"probe{probe}", deadline, True)
                setup_samples.append(result["setup_s"])
        result = run_worker(args, workdir / "run", deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()
    metrics = result["metrics"]
    if not args.trace:
        setup_samples.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setup_samples)
    print(f"{result['checks']} checks, setup samples {setup_samples}", file=sys.stderr)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
