"""
Size sweep of each timed path, with the fitted scaling exponent in N.

    python3 perfbench/scaling.py

For reference only, not a gated metric: a constant-factor gain at small
N raises the fitted exponent even when every size got faster.  Each
time is the median of REPEATS calls (one call above 1 s); the
exponent is the least-squares slope of log(time) against log(N).
"""

from __future__ import annotations

import math
import os
import pathlib
import statistics
import sys
import tempfile
import time

from run import ROOT, THREADS

sys.path.insert(0, str(ROOT / "src"))
for _name, _count in THREADS.items():
    os.environ.setdefault(_name, _count)  # as the benchmark runs; must precede numpy

import qwalk2d as qw  # noqa: E402

#: Calls timed per size; a size whose call exceeds 1 s is timed once.
REPEATS = 3


def _paths(tmp: pathlib.Path):
    grover, a1, pure_r = qw.grover_coin(), qw.a1_coin(), qw.InitialSpec.pure("R")
    exact = (9, 13, 17, 21, 25, 31)
    lattice = (51, 101, 151, 201)
    return [
        ("exact_time_average(grover, R, all)", exact,
         lambda n: qw.exact_time_average(grover, pure_r, n)),
        ("exact_time_average(a1, R, odd)", exact,
         lambda n: qw.exact_time_average(a1, pure_r, n, parity="odd")),
        ("SpectralDecomposition.build(grover)", exact,
         lambda n: qw.SpectralDecomposition.build(grover, n)),
        ("origin_coefficients(grover, R)", exact,
         lambda n: qw.origin_coefficients(grover, pure_r, n)),
        ("localization_predictor(a1)", exact + (41,),
         lambda n: qw.localization_predictor(a1, n)),
        ("evolve(grover, t=N)", lattice,
         lambda n: qw.evolve(qw.pure_state(n, "R"), grover, n)),
        ("evolve_spectral(grover, t=N)", lattice,
         lambda n: qw.evolve_spectral(qw.pure_state(n, "R"), grover, n)),
        ("write_grid_csv", lattice,
         lambda n: qw.write_grid_csv(qw.pure_state(n, "R"), tmp / "grid.csv")),
    ]


def _time(fn, n):
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn(n)
        samples.append(time.perf_counter() - start)
        if samples[-1] > 1.0:
            break
    return statistics.median(samples)


def slope(sizes, times) -> float:
    xs = [math.log(n) for n in sizes]
    ys = [math.log(t) for t in times]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> int:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name, sizes, fn in _paths(pathlib.Path(tmp)):
            times = [_time(fn, n) for n in sizes]
            cells = "  ".join(f"N={n}: {t:.3g}s" for n, t in zip(sizes, times))
            print(f"{name:38s} exponent {slope(sizes, times):4.2f}   {cells}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
