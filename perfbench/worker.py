"""
Run one workload in this (fresh) process and print its result as JSON.

    python3 perfbench/worker.py --workload NAME --seed S --seconds T \
        --trace 0|1 --workdir DIR [--setup-only]

`run.py` starts this once per run, plus a few `--setup-only` copies that
only time set-up.  Load is one thread in a closed loop: each job starts
when the previous one ends.  Correctness checks run after the timed phase.
"""

import time

_START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=pathlib.Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def setup(args):
    """Import qwalk2d and build the job inputs; returns (workload, inputs,
    library inputs, import timings)."""
    imports = {}
    if args.trace:
        import numpy  # noqa: F401

        mark = time.perf_counter()
        import scipy.integrate  # noqa: F401

        imports["setup.scipy_import_s"] = time.perf_counter() - mark
        mark = time.perf_counter()
    import qwalk2d
    import qwalk2d.cli

    if args.trace:
        imports["setup.qwalk2d_own_import_s"] = time.perf_counter() - mark
    import inputs as inputs_mod
    import workloads

    args.workdir.mkdir(parents=True, exist_ok=True)
    # jobs name the Haar coin by its file and the weights by their literal,
    # both fixed before the coin is drawn, so a first draw can build them
    draft = inputs_mod.generate(args.seed, args.workdir)
    workload = workloads.build(args.workload, draft, args.workdir)
    inputs = inputs_mod.generate(args.seed, args.workdir, workloads.haar_sizes(workload))
    library = {
        job: (qwalk2d.cli.parse_coin(job.coin), qwalk2d.cli.parse_initial(job.initial))
        for job in workload.small + workload.large
        if job.command == "origin-coefficients"
    }
    return workload, inputs, library, imports


def run_job(job, library):
    """Run one job; returns (stdout, returned object) or None if it failed."""
    import qwalk2d
    import qwalk2d.cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.command == "origin-coefficients":
                coin, spec = library[job]
                return out.getvalue(), qwalk2d.origin_coefficients(coin, spec, job.size)
            code = qwalk2d.cli.main(list(job.argv))
    except (Exception, SystemExit) as exc:  # a job that raises is counted as failed
        print(f"job {job.name} raised {exc!r}", file=sys.stderr)
        return None
    if code != 0:
        print(f"job {job.name} exited {code}: {err.getvalue().strip()}", file=sys.stderr)
        return None
    return out.getvalue(), None


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
    workload, inputs, library, imports = setup(args)
    setup_s = time.perf_counter() - _START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import tracer as tracing

    tracer = tracing.Tracer() if args.trace else None
    blocks_needed = (workload.small_passes * sum(job.blocks for job in workload.small)
                     + workload.large_passes * sum(job.blocks for job in workload.large))
    small_times, large_times, traced_large, layers = [], [], [], []
    attempted = failed = rounds = 0
    outputs = {}
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        tiers = ([workload.small] * workload.small_passes
                 + [workload.large] * workload.large_passes)
        for index, jobs in enumerate(tiers):
            tier_start = time.perf_counter()
            for job in jobs:
                attempted += 1
                result = run_job(job, library)
                if result is None:
                    failed += 1
                    outputs.pop(job, None)
                else:
                    outputs[job] = result
            elapsed = time.perf_counter() - tier_start
            if index < workload.small_passes:
                small_times.append(elapsed)
            else:
                (traced_large if traced else large_times).append(elapsed)
        if traced:
            tracer.uninstall()
            layers.append(tracer.layer_metrics(blocks_needed))
        rounds += 1
        if time.perf_counter() >= deadline and (tracer is None or rounds >= 2):
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        metrics = {name: statistics.median(r[name] for r in layers) for name in layers[0]}
        metrics.update(imports)
        metrics.update(peak_allocations(workload))
        # large tiers only: they follow the small passes, so neither side runs cold
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_large) / statistics.median(large_times) - 1.0)
        units = tracing.METRICS
        write_spans(args, tracer)
    else:
        metrics = {
            "setup_s": setup_s,
            "small_n_s": statistics.median(small_times),
            "large_n_s": statistics.median(large_times),
            "peak_rss_mib": peak_rss_mib,
        }
        units = {"setup_s": "s", "small_n_s": "s", "large_n_s": "s", "peak_rss_mib": "MiB"}

    import checks

    checker = checks.Checker(inputs)
    problems = checker.run(outputs)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "checks": checker.checked,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


def peak_allocations(workload) -> dict[str, float]:
    """tracemalloc peaks of one `step` and one `SpectralDecomposition.build`
    at the largest size the workload runs them; 0 where it runs neither."""
    import qwalk2d
    import qwalk2d.cli
    import tracer as tracing

    jobs = workload.small + workload.large
    stepped = [j for j in jobs if j.command == "timeavg-empirical"
               or (j.command == "simulate" and j.backend == "direct")]
    built = [j for j in jobs if j.command in ("spectrum", "predict")]
    result = {"evolve.step_peak_alloc_bytes": 0, "spectral.build_peak_alloc_bytes": 0}
    if stepped:
        job = max(stepped, key=lambda j: j.size)
        state = qwalk2d.origin_superposition(job.size, qwalk2d.cli.parse_initial(job.initial))
        coin = qwalk2d.cli.parse_coin(job.coin)
        result["evolve.step_peak_alloc_bytes"] = tracing.peak_alloc(qwalk2d.step, state, coin)
    if built:
        job = max(built, key=lambda j: j.size)
        coin = qwalk2d.cli.parse_coin(job.coin)
        result["spectral.build_peak_alloc_bytes"] = tracing.peak_alloc(
            qwalk2d.SpectralDecomposition.build, coin, job.size)
    return result


def write_spans(args, tracer) -> None:
    """Keep the last traced round's span table next to the run outputs."""
    path = pathlib.Path(__file__).resolve().parent.parent / ".perfbench_traces"
    path.mkdir(exist_ok=True)
    name = path / f"{args.workload}-seed{args.seed}.json"
    name.write_text(json.dumps(tracer.spans(), indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
