"""
The timed paths of `perfbench/scaling.py`, direct evolution to t = N
under the a1 coin and a Haar coin at scaling's lattice sizes, two long
direct trajectories, two spectral propagations, four eigensolve-bound
exact paths at N = 101, 201 and 301, the exact average under the Haar
coin at N = 17, 41 and 101, one step's coin product over the lattice rows
and as one flat product, both grid writers on evolved grids, and
`simulate`, `spectrum`, `timeavg --method exact` and `predict` end to
end, written with the host description to one BENCH_<seq>.json, along
with the tracemalloc peaks of the three exact routes.

    python3 bench/trajectory.py SEQ --label TEXT

Run from the root of a source checkout: `perfbench/scaling.py` imports
the program from that checkout's `src/` and holds BLAS to the
benchmark's thread counts.  Each size gets one warm-up call and then
CALLS timed calls, recorded as their median and quartiles; the exponent
is scaling's `slope`, the least-squares slope of log(median) against
log(N), and null for a path timed at one size.  The Haar coin is
`perfbench/inputs.py`'s `haar_unitary` at seed 101, and the custom
initial state its `origin_weights` at seed 101.  A peak is the one of
`perfbench/tracer.py`'s `peak_alloc` over one call after a warm-up call,
in bytes per N^2 block.  The file lands next to this script.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
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

from inputs import custom_literal, haar_unitary, origin_weights  # noqa: E402
from tracer import peak_alloc  # noqa: E402
import numpy as np  # noqa: E402
from qwalk2d import cli  # noqa: E402
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
#: Coin products per timed call of the product rows, which take microseconds each.
PRODUCTS = 100
#: Sizes of the product rows, on both sides of `evolve.FLAT_PRODUCT_MAX_N`.
PRODUCT_SIZES = (21, 51, 75, 101, 127, 151, 201)
#: Sizes of the writer and `simulate` rows, and the steps of their grids: those of
#: the benchmark's `lattice-evolution` large tier.
WRITER_SIZES = (51, 101, 201)
WRITER_STEPS = 200
#: Sizes of the exact commands end to end and of the exact routes' memory peaks.
EXACT_SIZES = (51, 101, 201)
PEAK_SIZES = (41, 101, 201)


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


def product_paths():
    """
    One step's coin product `np.matmul(source, gate, out=target)` on the
    buffers of `evolve`'s stepper, PRODUCTS times per call: stacked over the
    lattice rows, as `evolve`'s bands multiply, and as one flat product.
    """
    haar = qw.custom_coin(haar_unitary(np.random.default_rng(101)), label="haar")
    paths = []
    for coin in (qw.grover_coin(), haar):
        for flat in (False, True):
            @functools.cache
            def operands(n, coin=coin, flat=flat):
                stepper = qw._evolve._stepper(qw.pure_state(n, "R"), coin)
                source, gate, target = stepper.source, stepper.gate, stepper.target
                if flat:
                    source, target = source.reshape(n * n, -1), target.reshape(n * n, -1)
                return source, gate, target

            def products(n, operands=operands):
                source, gate, target = operands(n)
                for _ in range(PRODUCTS):
                    np.matmul(source, gate, out=target)

            shape = "(N^2, 8) @ (8, 8)" if coin.is_real else "(N^2, 4) @ (4, 4) complex"
            layout = "one flat product" if flat else "per lattice row"
            paths.append((f"{PRODUCTS} x coin product {shape}, {layout}", PRODUCT_SIZES, products))
    return paths


def writer_paths(tmp: pathlib.Path):
    """
    Both grid writers on grids evolved WRITER_STEPS steps, grover from R and
    a1 from the custom state, and `simulate` through `qwalk2d.cli.main`.
    """
    weights = origin_weights(np.random.default_rng(101))
    custom = qw.InitialSpec(*weights)
    literal = custom_literal(weights)
    starts = {("grover", "R"): lambda n: qw.pure_state(n, "R"),
              ("a1", "custom"): lambda n: qw.origin_superposition(n, custom)}

    @functools.cache
    def grid(coin, initial, n):
        return qw.evolve(starts[coin, initial](n), cli.parse_coin(coin), WRITER_STEPS)

    def simulate(coin, initial, fmt, n):
        argv = ["simulate", "--coin", coin, "--n", str(n), "--steps", str(WRITER_STEPS),
                "--initial", literal if initial == "custom" else initial,
                "--format", fmt, "--out", str(tmp / f"simulate.{fmt}")]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"simulate exited non-zero: {argv}")

    paths = []
    for coin, initial in starts:
        for fmt, writer in (("csv", qw.write_grid_csv), ("json", qw.write_grid_json)):
            paths.append((f"{writer.__name__}({coin}, {initial}, t={WRITER_STEPS})", WRITER_SIZES,
                          lambda n, coin=coin, initial=initial, writer=writer, fmt=fmt:
                          writer(grid(coin, initial, n), tmp / f"grid.{fmt}")))
    for coin, initial in starts:
        for fmt in ("csv", "json"):
            paths.append((f"simulate {coin} {initial} t={WRITER_STEPS} --format {fmt}",
                          WRITER_SIZES, functools.partial(simulate, coin, initial, fmt)))
    return paths


def exact_coins():
    """The coins of the exact rows: grover, a1 and the seed-101 Haar coin."""
    haar = qw.custom_coin(haar_unitary(np.random.default_rng(101)), label="haar")
    return {"grover": qw.grover_coin(), "a1": qw.a1_coin(), "haar": haar}


def command_paths(tmp: pathlib.Path):
    """
    `spectrum`, `timeavg --method exact --parity odd` from the custom state
    and `predict` through `qwalk2d.cli.main`, for each of `exact_coins`.
    """
    haar_path = tmp / "haar.json"
    haar_path.write_text(json.dumps(
        [[[v.real, v.imag] for v in row] for row in exact_coins()["haar"].entries.tolist()]))
    literal = custom_literal(origin_weights(np.random.default_rng(101)))

    def run(argv, n):
        argv = [*argv, "--n", str(n)]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError(f"command exited non-zero: {argv}")

    paths = []
    for name in exact_coins():
        coin = f"file:{haar_path}" if name == "haar" else name
        for label, argv in (
            (f"spectrum {name}", ["spectrum", "--coin", coin, "--out", str(tmp / "spectrum.json")]),
            (f"timeavg --method exact {name} custom odd",
             ["timeavg", "--method", "exact", "--coin", coin, "--initial", literal,
              "--parity", "odd", "--out", str(tmp / "timeavg.json")]),
            (f"predict {name}", ["predict", "--coin", coin]),
        ):
            paths.append((label, EXACT_SIZES, functools.partial(run, argv)))
    return paths


def peak_paths():
    """The exact routes whose memory peaks are recorded, for each of `exact_coins`."""
    pure_r = qw.InitialSpec.pure("R")
    paths = []
    for name, coin in exact_coins().items():
        paths += [
            (f"SpectralDecomposition.build({name})",
             functools.partial(qw.SpectralDecomposition.build, coin)),
            (f"exact_time_average({name}, R, odd)",
             lambda n, coin=coin: qw.exact_time_average(coin, pure_r, n, "odd")),
            (f"origin_coefficients({name}, R)",
             lambda n, coin=coin: qw.origin_coefficients(coin, pure_r, n)),
        ]
    return paths


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
        extra = (product_paths() + writer_paths(pathlib.Path(tmp))
                 + command_paths(pathlib.Path(tmp)))
        for name, sizes, fn in scaling_paths + trajectory_paths(lattice) + extra:
            times, q1, q3 = zip(*(timed(fn, n) for n in sizes))
            exponent = slope(sizes, times) if len(sizes) > 1 else None
            keys = list(map(str, sizes))
            paths.append({"path": name, "median_s": dict(zip(keys, times)),
                          "quartiles_s": {key: [lo, hi] for key, lo, hi in zip(keys, q1, q3)},
                          "exponent": exponent})
            cells = "  ".join(f"N={n}: {t:.3g}s" for n, t in zip(sizes, times))
            fitted = "-" if exponent is None else f"{exponent:.2f}"
            print(f"{name:48s} exponent {fitted:>5s}   {cells}", flush=True)
    peaks = []
    for name, fn in peak_paths():
        per_block = {}
        for n in PEAK_SIZES:
            fn(n)
            per_block[str(n)] = peak_alloc(fn, n) / n ** 2
        peaks.append({"path": name, "peak_bytes_per_n2": per_block})
        cells = "  ".join(f"N={n}: {b:.0f}" for n, b in per_block.items())
        print(f"{name:48s} peak bytes / N^2   {cells}", flush=True)
    payload = {
        "seq": args.seq,
        "label": args.label,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": np.__version__, "scipy": scipy.__version__, "threads": THREADS},
        "calls_per_size": CALLS,
        "paths": paths,
        "peaks": peaks,
    }
    out = HERE / f"BENCH_{args.seq}.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
