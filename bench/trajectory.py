"""
The timed paths of `perfbench/scaling.py`, direct evolution to t = N
under the a1 coin and a Haar coin at scaling's lattice sizes, two long
direct trajectories, two spectral propagations, four eigensolve-bound
exact paths at N = 101, 201 and 301 and the exact average under the Haar
coin at N = 17, 41 and 101, written with the host description to one
BENCH_<seq>.json.

    python3 bench/trajectory.py SEQ --label TEXT

Run from the root of a source checkout: `perfbench/scaling.py` imports
the program from that checkout's `src/` and holds BLAS to the
benchmark's thread counts.  Each size gets one warm-up call and then
CALLS timed calls, recorded as their median and quartiles; the exponent
is scaling's `slope`, the least-squares slope of log(median) against
log(N), and null for a path timed at one size.  The Haar coin is
`perfbench/inputs.py`'s `haar_unitary` at seed 101.  The file lands next
to this script.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

# scaling sets the thread environment before numpy loads, so it comes first
from scaling import ROOT, THREADS, _paths, qw, slope  # noqa: E402

from inputs import haar_unitary  # noqa: E402
import numpy as np  # noqa: E402
import scipy  # noqa: E402

#: Steps of each trajectory: the horizon of the benchmark's empirical average.
HORIZON = 20000
#: Steps of the long spectral propagation.
SPECTRAL_STEPS = 100000
#: Timed calls per size, after one untimed warm-up call.
CALLS = 7
#: Sizes of the exact paths whose time goes to the 4x4 eigensolves.
LARGE = (101, 201, 301)
#: Sizes of the Haar coin's exact average: the coin has no lattice symmetry, so
#: every one of the N^2 blocks is diagonalized, and the time is all eigensolve.
HAAR_EXACT = (17, 41, 101)


def trajectory_paths(lattice):
    """`lattice`: the sizes at which scaling times evolve(grover, t=N)."""
    grover, a1, a2 = qw.grover_coin(), qw.a1_coin(), qw.a2_coin()
    pure_r = qw.InitialSpec.pure("R")
    haar = qw.custom_coin(haar_unitary(np.random.default_rng(101)), label="haar")
    return [
        ("evolve(a1, t=N)", lattice, lambda n: qw.evolve(qw.pure_state(n, "R"), a1, n)),
        ("evolve(haar, t=N)", lattice, lambda n: qw.evolve(qw.pure_state(n, "R"), haar, n)),
        (f"evolve(grover, t={HORIZON})", (21,),
         lambda n: qw.evolve(qw.pure_state(n, "R"), grover, HORIZON)),
        (f"empirical_time_average(grover, R, T={HORIZON})", (11, 21, 31),
         lambda n: qw.empirical_time_average(qw.origin_superposition(n, pure_r), grover, HORIZON)),
        ("evolve_spectral(haar, t=N)", (51, 101, 201),
         lambda n: qw.evolve_spectral(qw.pure_state(n, "R"), haar, n)),
        (f"evolve_spectral(grover, t={SPECTRAL_STEPS})", (51, 101, 201),
         lambda n: qw.evolve_spectral(qw.pure_state(n, "R"), grover, SPECTRAL_STEPS)),
        ("exact_time_average(grover, R, all), large N", LARGE,
         lambda n: qw.exact_time_average(grover, pure_r, n)),
        ("exact_time_average(a2, R, all), large N", LARGE,
         lambda n: qw.exact_time_average(a2, pure_r, n)),
        ("origin_coefficients(grover, R), large N", LARGE,
         lambda n: qw.origin_coefficients(grover, pure_r, n)),
        ("localization_predictor(a1), large N", LARGE,
         lambda n: qw.localization_predictor(a1, n)),
        ("exact_time_average(haar, R, all)", HAAR_EXACT,
         lambda n: qw.exact_time_average(haar, pure_r, n)),
    ]


def timed(fn, n):
    """Median, first and third quartile of CALLS calls of fn(n), after one warm-up call."""
    fn(n)
    samples = []
    for _ in range(CALLS):
        start = time.perf_counter()
        fn(n)
        samples.append(time.perf_counter() - start)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return statistics.median(samples), q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seq", type=int, help="sequence number in the file name")
    parser.add_argument("--label", required=True, help="which source tree was timed")
    args = parser.parse_args(argv)
    paths = []
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        scaling_paths = _paths(pathlib.Path(tmp))
        lattice = next(sizes for name, sizes, _ in scaling_paths if name == "evolve(grover, t=N)")
        for name, sizes, fn in scaling_paths + trajectory_paths(lattice):
            times, q1, q3 = zip(*(timed(fn, n) for n in sizes))
            exponent = slope(sizes, times) if len(sizes) > 1 else None
            keys = list(map(str, sizes))
            paths.append({"path": name, "median_s": dict(zip(keys, times)),
                          "quartiles_s": {key: [lo, hi] for key, lo, hi in zip(keys, q1, q3)},
                          "exponent": exponent})
            cells = "  ".join(f"N={n}: {t:.3g}s" for n, t in zip(sizes, times))
            fitted = "-" if exponent is None else f"{exponent:.2f}"
            print(f"{name:48s} exponent {fitted:>5s}   {cells}", flush=True)
    payload = {
        "seq": args.seq,
        "label": args.label,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "scipy": scipy.__version__, "threads": THREADS},
        "calls_per_size": CALLS,
        "paths": paths,
    }
    out = HERE / f"BENCH_{args.seq}.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
