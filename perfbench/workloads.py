"""
The three workloads and their jobs.

A job is one CLI command run in-process through `qwalk2d.cli.main(argv)`,
or the library call `qwalk2d.origin_coefficients`, which has no command.
Each workload has a small-N tier (interactive sizes, per-call overhead
dominates) and a large-N tier (asymptotic cost dominates).  A round runs
the small tier `small_passes` times and the large tier `large_passes`
times; every run attempts whole rounds, so the job mix is the same
whatever the run length.

Sizes and passes are set so that two rounds of each exact workload on the
seed code fill a 20 s run on a 2-vCPU machine with at least 12 small and
2 large samples (each tier time is a median over its passes, and the
host's noise is fast); the README gives the reasons and the scaling sweep
that reaches the paper's N = 31.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

from inputs import Inputs

PARITIES = ("all", "even", "odd")


@dataclass(frozen=True)
class Job:
    name: str
    command: str  # timeavg-exact, spectrum, predict, origin-coefficients, simulate, timeavg-empirical
    coin: str  # coin selector as the CLI takes it
    size: int
    initial: str  # "R" or the custom literal
    argv: tuple[str, ...] = ()
    out: pathlib.Path | None = None
    parity: str = "all"
    steps: int = 0
    backend: str = "direct"
    fmt: str = "csv"
    blocks: int = 0  # distinct momentum blocks the job needs diagonalized


@dataclass(frozen=True)
class Workload:
    name: str
    small: tuple[Job, ...]
    large: tuple[Job, ...]
    small_passes: int
    large_passes: int = 1


def _coin_selector(coin: str, inputs: Inputs) -> str:
    return f"file:{inputs.haar_path}" if coin == "haar" else coin


def _initials(inputs: Inputs):
    return (("R", "R"), ("custom", inputs.custom))


def exact_jobs(coins, size, predict_size, inputs, workdir, tier) -> list[Job]:
    """timeavg --method exact for every parity from R and from the seeded
    superposition, then spectrum, predict and origin_coefficients."""
    jobs = []
    for coin in coins:
        selector = _coin_selector(coin, inputs)
        for init_name, initial in _initials(inputs):
            for parity in PARITIES:
                name = f"{tier}/timeavg-exact/{coin}/{init_name}/{parity}/N{size}"
                out = workdir / (name.replace("/", "_") + ".json")
                argv = ("timeavg", "--method", "exact", "--coin", selector,
                        "--n", str(size), "--initial", initial,
                        "--parity", parity, "--out", str(out))
                jobs.append(Job(name, "timeavg-exact", selector, size, initial, argv,
                                out, parity=parity, blocks=size * size))
        name = f"{tier}/spectrum/{coin}/N{size}"
        out = workdir / (name.replace("/", "_") + ".json")
        argv = ("spectrum", "--coin", selector, "--n", str(size), "--out", str(out))
        jobs.append(Job(name, "spectrum", selector, size, "R", argv, out,
                        blocks=size * size))
        name = f"{tier}/predict/{coin}/N{predict_size}"
        argv = ("predict", "--coin", selector, "--n", str(predict_size))
        jobs.append(Job(name, "predict", selector, predict_size, "R", argv,
                        blocks=predict_size * predict_size))
        name = f"{tier}/origin-coefficients/{coin}/custom/N{size}"
        jobs.append(Job(name, "origin-coefficients", selector, size, inputs.custom,
                        blocks=size * size))
    return jobs


def simulate_job(coin, size, steps, init_name, inputs, workdir, tier,
                 backend="direct", fmt="csv") -> Job:
    initial = dict(_initials(inputs))[init_name]
    name = f"{tier}/simulate-{backend}/{coin}/{init_name}/N{size}/t{steps}/{fmt}"
    out = workdir / (name.replace("/", "_") + "." + fmt)
    argv = ("simulate", "--coin", coin, "--n", str(size), "--steps", str(steps),
            "--initial", initial, "--backend", backend, "--format", fmt,
            "--out", str(out))
    return Job(name, "simulate", coin, size, initial, argv, out, steps=steps,
               backend=backend, fmt=fmt,
               blocks=size * size if backend == "spectral" else 0)


def empirical_job(coin, size, samples, init_name, parity, inputs, workdir, tier) -> Job:
    initial = dict(_initials(inputs))[init_name]
    name = f"{tier}/timeavg-empirical/{coin}/{init_name}/{parity}/N{size}/T{samples}"
    out = workdir / (name.replace("/", "_") + ".json")
    argv = ("timeavg", "--method", "empirical", "--coin", coin, "--n", str(size),
            "--initial", initial, "--parity", parity, "--samples", str(samples),
            "--out", str(out))
    return Job(name, "timeavg-empirical", coin, size, initial, argv, out,
               parity=parity, steps=samples)


def build(name: str, inputs: Inputs, workdir: pathlib.Path) -> Workload:
    if name == "grover-exact":
        coins = ("grover", "a4:0.3")
        return Workload(
            name,
            tuple(exact_jobs(coins, 9, 9, inputs, workdir, "small")),
            tuple(exact_jobs(coins, 21, 21, inputs, workdir, "large")),
            small_passes=6,
        )
    if name == "spreading-exact":
        coins = ("a1", "a2", "haar")
        return Workload(
            name,
            tuple(exact_jobs(coins, 9, 9, inputs, workdir, "small")),
            tuple(exact_jobs(coins, 17, 41, inputs, workdir, "large")),
            small_passes=6,
            large_passes=2,
        )
    if name == "lattice-evolution":
        small = (
            empirical_job("grover", 21, 20000, "R", "all", inputs, workdir, "small"),
            simulate_job("a1", 21, 8, "custom", inputs, workdir, "small"),
        )
        large = (
            simulate_job("grover", 201, 200, "R", inputs, workdir, "large", fmt="csv"),
            simulate_job("grover", 201, 200, "R", inputs, workdir, "large", fmt="json"),
            simulate_job("a1", 201, 200, "custom", inputs, workdir, "large", fmt="csv"),
            simulate_job("a1", 201, 200, "custom", inputs, workdir, "large", fmt="json"),
            simulate_job("grover", 201, 100, "custom", inputs, workdir, "large",
                         backend="spectral"),
        )
        return Workload(name, small, large, small_passes=1)
    raise ValueError(f"unknown workload {name!r}")


def haar_sizes(workload: Workload) -> set[int]:
    """Sizes at which the workload diagonalizes the Haar coin."""
    return {job.size for job in workload.small + workload.large
            if job.coin.startswith("file:")}
