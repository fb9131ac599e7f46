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
    python3 bench/trajectory.py SEQ --label TEXT --against DIR

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

With --against DIR, another source checkout such as the parent commit's,
the file holds paired timings instead: two long-lived worker processes,
one importing each tree's program, take turns call by call on the rows
of `paired_paths`, PAIRS pairs per row and size, the order flipped every
pair, after one warm-up call each.  Every row gets both trees' medians,
the per-pair ratio of this tree's time to DIR's with its quartiles, and
the count of pairs this tree won; a row timed at several sizes also gets
both trees' exponents, fitted to their medians.  The tracemalloc peaks of
`paired_peaks` come from each worker too.  Rows of unchanged code then
read near 1 even when the host's clock drifts between minutes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import itertools
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
#: The checkout whose program this process times: this one, or the one a
#: paired run's worker was started on with `--serve DIR`.
TREE = (pathlib.Path(sys.argv[sys.argv.index("--serve") + 1]).resolve()
        if "--serve" in sys.argv else HERE.parent)
sys.path.insert(0, str(TREE / "perfbench"))

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
#: Pairs of calls per row and size in a paired run, and its sizes.
PAIRS = 15
PAIRED_SIZES = (101, 201)
#: Samples of the paired `scan-alpha` row.
SCAN_SAMPLES = 2001
#: Sizes of the paired direct-evolution rows: one band on any host, and two bands on two
#: CPUs (one band in `trajectory`).
DIRECT_SIZES = (103, 201)


def trajectory_paths(lattice):
    """`lattice`: the sizes at which scaling times evolve(grover, t=N)."""
    grover, a1, a2 = qw.grover_coin(), qw.a1_coin(), qw.a2_coin()
    pure_r = qw.InitialSpec.pure("R")
    haar = qw.Coin(haar_unitary(np.random.default_rng(101)), label="haar")
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


def product_operands(n, coin, flat):
    """
    The operands of one step's coin product as `evolve`'s stepper builds
    them: float64 views of (N, N, 4) buffers times kron(C^T, I2) for a real
    coin, the complex buffers times C^T otherwise; stacked over the lattice
    rows, or reshaped to one flat product.
    """
    source, target = qw.pure_state(n, "R").amplitudes, np.empty((n, n, 4), complex)
    gate = coin.entries.T
    if coin.is_real:
        source, target = source.view(np.float64), target.view(np.float64)
        gate = np.kron(gate.real, np.eye(2))
    if flat:
        source, target = source.reshape(n * n, -1), target.reshape(n * n, -1)
    return source, gate, target


def product_paths():
    """
    One step's coin product `np.matmul(source, gate, out=target)` on the
    operands of `product_operands`, PRODUCTS times per call: stacked over
    the lattice rows, as `evolve`'s bands multiply, and as one flat product.
    """
    haar = qw.Coin(haar_unitary(np.random.default_rng(101)), label="haar")
    paths = []
    for coin in (qw.grover_coin(), haar):
        for flat in (False, True):
            operands = functools.cache(functools.partial(product_operands, coin=coin, flat=flat))

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
    haar = qw.Coin(haar_unitary(np.random.default_rng(101)), label="haar")
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


def direct_paths():
    """
    Direct evolution to t = N from R for each of `exact_coins`, the Haar
    coin's one-band `trajectory` to t = N, both at DIRECT_SIZES, and the
    empirical grover average at N = 21 over HORIZON steps.
    """
    coins, pure_r = exact_coins(), qw.InitialSpec.pure("R")
    paths = [(f"evolve({name}, t=N)", DIRECT_SIZES,
              lambda n, coin=coin: qw.evolve(qw.pure_state(n, "R"), coin, n))
             for name, coin in coins.items()]
    return paths + [
        ("one-band trajectory(haar, t=N)", DIRECT_SIZES,
         lambda n: next(itertools.islice(
             qw._evolve.trajectory(qw.pure_state(n, "R"), coins["haar"]), n, None))),
        (f"empirical_time_average(grover, R, T={HORIZON})", (21,),
         lambda n: qw.empirical_time_average(qw.origin_superposition(n, pure_r),
                                             coins["grover"], HORIZON)),
    ]


def paired_paths(tmp: pathlib.Path):
    """
    The rows of a paired run: `SpectralDecomposition.build`, its `write_json`,
    `origin_coefficients` and the three commands of `command_paths` for
    each of `exact_coins` at PAIRED_SIZES, the four grid writers at N = 201,
    `scan-alpha` through `qwalk2d.cli.main`, and `direct_paths`.
    """
    pure_r = qw.InitialSpec.pure("R")
    coins = exact_coins()
    built = functools.cache(lambda name, n: qw.SpectralDecomposition.build(coins[name], n))
    paths = []
    for name, coin in coins.items():
        paths += [
            (f"SpectralDecomposition.build({name})", PAIRED_SIZES,
             functools.partial(qw.SpectralDecomposition.build, coin)),
            (f"SpectralDecomposition.write_json({name})", PAIRED_SIZES,
             lambda n, name=name: built(name, n).write_json(io.StringIO())),
            (f"origin_coefficients({name}, R)", PAIRED_SIZES,
             lambda n, coin=coin: qw.origin_coefficients(coin, pure_r, n)),
        ]
    paths += [(name, PAIRED_SIZES, fn) for name, _, fn in command_paths(tmp)]
    paths += [(name, (201,), fn) for name, _, fn in writer_paths(tmp)
              if name.startswith("write_grid")]

    def scan(samples):
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(["scan-alpha", "--samples", str(samples)]) != 0:
                raise RuntimeError("scan-alpha exited non-zero")

    return paths + [("scan-alpha", (SCAN_SAMPLES,), scan)] + direct_paths()


def paired_peaks(tmp: pathlib.Path):
    """
    The exact routes and the commands of `command_paths` whose peaks a
    paired run records, at PAIRED_SIZES.
    """
    return ([(name, PAIRED_SIZES, fn) for name, fn in peak_paths()
             if not name.startswith("exact_time_average")]
            + [(name, PAIRED_SIZES, fn) for name, _, fn in command_paths(tmp)])


def serve() -> int:
    """
    A paired run's worker: answer each request line [kind, path, n] on stdin
    with one line, the seconds of one call of that path ("time") or its
    tracemalloc peak in bytes per N^2 ("peak").
    """
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        tmp = pathlib.Path(tmp)
        paths = {name: fn for name, _, fn in paired_paths(tmp) + paired_peaks(tmp)}
        print(json.dumps("ready"), flush=True)
        for line in sys.stdin:
            kind, name, n = json.loads(line)
            if kind == "peak":
                paths[name](n)
                answer = peak_alloc(paths[name], n) / n ** 2
            else:
                start = time.perf_counter()
                paths[name](n)
                answer = time.perf_counter() - start
            print(json.dumps(answer), flush=True)
    return 0


def paired(against: pathlib.Path) -> dict:
    """Rows and peaks of this tree against the checkout `against`, timed in turns."""
    workers = [subprocess.Popen(
        [sys.executable, __file__, "--serve", str(tree)], stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True) for tree in (HERE.parent, against)]

    def ask(worker, *request):
        worker.stdin.write(json.dumps(request) + "\n")
        worker.stdin.flush()
        return json.loads(worker.stdout.readline())

    try:
        for worker in workers:
            if json.loads(worker.stdout.readline()) != "ready":
                raise RuntimeError("a worker did not start")
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            rows = [(name, sizes) for name, sizes, _ in paired_paths(pathlib.Path(tmp))]
            peak_rows = [(name, sizes) for name, sizes, _ in paired_peaks(pathlib.Path(tmp))]
        table, exponents = [], []
        for name, sizes in rows:
            medians = ([], [])
            for n in sizes:
                for worker in workers:
                    ask(worker, "time", name, n)
                times = ([], [])
                for k in range(PAIRS):
                    for side in (0, 1) if k % 2 == 0 else (1, 0):
                        times[side].append(ask(workers[side], "time", name, n))
                ratios = [mine / theirs for mine, theirs in zip(*times)]
                for side in (0, 1):
                    medians[side].append(statistics.median(times[side]))
                q1, median, q3 = statistics.quantiles(ratios, n=4)
                table.append({"path": name, "N": n,
                              "median_s": statistics.median(times[0]),
                              "against_median_s": statistics.median(times[1]),
                              "ratio_median": median, "ratio_quartiles": [q1, q3],
                              "faster_pairs": sum(r < 1.0 for r in ratios)})
                print(f"{name:48s} N={n:<5d} ratio {median:.3f} [{q1:.3f}, {q3:.3f}]  "
                      f"faster in {table[-1]['faster_pairs']} of {PAIRS}", flush=True)
            if len(sizes) > 1:
                exponents.append({"path": name, "exponent": slope(sizes, medians[0]),
                                  "against_exponent": slope(sizes, medians[1])})
                print(f"{name:48s} exponent {exponents[-1]['exponent']:.2f} against "
                      f"{exponents[-1]['against_exponent']:.2f}", flush=True)
        peaks = []
        for name, sizes in peak_rows:
            for n in sizes:
                mine, theirs = (ask(worker, "peak", name, n) for worker in workers)
                peaks.append({"path": name, "N": n, "peak_bytes_per_n2": mine,
                              "against_peak_bytes_per_n2": theirs})
                print(f"{name:48s} N={n:<5d} peak bytes / N^2 {mine:.0f} against {theirs:.0f}",
                      flush=True)
    finally:
        for worker in workers:
            worker.stdin.close()
            worker.wait()
    return {"pairs_per_row": PAIRS, "paths": table, "exponents": exponents, "peaks": peaks}


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
    parser.add_argument("--against", type=pathlib.Path,
                        help="time against this source checkout, in pairs of calls")
    args = parser.parse_args(argv)
    host = {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "threads": THREADS}
    if args.against is not None:
        payload = {"seq": args.seq, "label": args.label, "host": host,
                   **paired(args.against.resolve())}
        return write(payload)
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
    return write({"seq": args.seq, "label": args.label, "host": host,
                  "calls_per_size": CALLS, "paths": paths, "peaks": peaks})


def write(payload: dict) -> int:
    out = HERE / f"BENCH_{payload['seq']}.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(serve() if "--serve" in sys.argv else main())
