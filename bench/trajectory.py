"""
The timed paths of `perfbench/scaling.py` plus two long direct
trajectories, written with the host description to one BENCH_<seq>.json.

    python3 bench/trajectory.py SEQ --label TEXT

Run from the root of a source checkout: `perfbench/scaling.py` imports
the program from that checkout's `src/` and holds BLAS to the
benchmark's thread counts.  Each size is timed by its `_time` (median of
three calls, one call above 1 s); the exponent is its `slope`, the
least-squares slope of log(time) against log(N), and null for a path
timed at one size.  The file lands next to this script.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

# scaling sets the thread environment before numpy loads, so it comes first
from scaling import ROOT, THREADS, _paths, _time, qw, slope  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

#: Steps of each trajectory: the horizon of the benchmark's empirical average.
HORIZON = 20000


def trajectory_paths():
    grover, pure_r = qw.grover_coin(), qw.InitialSpec.pure("R")
    return [
        (f"evolve(grover, t={HORIZON})", (21,),
         lambda n: qw.evolve(qw.pure_state(n, "R"), grover, HORIZON)),
        (f"empirical_time_average(grover, R, T={HORIZON})", (11, 21, 31),
         lambda n: qw.empirical_time_average(qw.origin_superposition(n, pure_r), grover, HORIZON)),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seq", type=int, help="sequence number in the file name")
    parser.add_argument("--label", required=True, help="which source tree was timed")
    args = parser.parse_args(argv)
    paths = []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name, sizes, fn in _paths(pathlib.Path(tmp)) + trajectory_paths():
            times = [_time(fn, n) for n in sizes]
            exponent = slope(sizes, times) if len(sizes) > 1 else None
            paths.append({"path": name, "median_s": dict(zip(map(str, sizes), times)),
                          "exponent": exponent})
            cells = "  ".join(f"N={n}: {t:.3g}s" for n, t in zip(sizes, times))
            fitted = "-" if exponent is None else f"{exponent:.2f}"
            print(f"{name:48s} exponent {fitted:>5s}   {cells}", flush=True)
    payload = {
        "seq": args.seq,
        "label": args.label,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "scipy": scipy.__version__, "threads": THREADS},
        "paths": paths,
    }
    out = HERE / f"BENCH_{args.seq}.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
