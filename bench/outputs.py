"""
Digests of what the CLI prints and writes, over a fixed list of jobs.

    python3 bench/outputs.py OUT.json

Run from the root of a source checkout: the program is imported from
that checkout's `src/`, under the benchmark's BLAS thread counts.  Each
job is one in-process `qwalk2d.cli.main(argv)` call.  The Haar `file:`
coin and the `custom:` initial state come from `perfbench/inputs.py` at
seed SEED; the grover `file:` coin holds the diffusion matrix.  OUT.json
holds, per job, the exit code and the sha256 of its stdout and of the
file it wrote (null when it wrote none), so two source trees print and
write the same bytes exactly when their files are equal.  To compare
with an earlier run, for instance of the parent commit:

    python3 bench/outputs.py OUT.json --against BASE.json

prints every job whose exit code or digests differ from BASE.json, or
that is new or missing there.

The exit status is 1 when any job exited non-zero or, with --against,
when any job differs, is new or is missing; OUT.json is written first.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import THREADS  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))
for _name, _count in THREADS.items():
    os.environ.setdefault(_name, _count)  # as the benchmark runs; must precede numpy

from inputs import generate  # noqa: E402

from qwalk2d import cli  # noqa: E402

SEED = 101
COINS = ("grover", "a1", "a2", "a4:0.3", "haar")
SIZES = (9, 21)
PARITIES = ("all", "even", "odd")
#: the diffusion coin as a `file:` coin: -1/2 on the diagonal, 1/2 elsewhere
GROVER_ENTRIES = [[[-0.5 if i == j else 0.5, 0.0] for j in range(4)] for i in range(4)]


def jobs(haar: str, custom: str, grover_file: str):
    """(name, argv, output suffix or None) for every job, in a fixed order."""
    initials = {"R": "R", "custom": custom}
    for coin in COINS:
        selector = haar if coin == "haar" else coin
        for n in SIZES:
            for init_name, initial in initials.items():
                for steps in (1, 2 * n + 3):
                    for backend in ("direct", "spectral"):
                        for fmt in ("csv", "json"):
                            yield (f"simulate/{backend}/{coin}/{init_name}/N{n}/t{steps}/{fmt}",
                                   ["simulate", "--coin", selector, "--n", str(n),
                                    "--steps", str(steps), "--initial", initial,
                                    "--backend", backend, "--format", fmt], fmt)
                for parity in PARITIES:
                    yield (f"timeavg-exact/{coin}/{init_name}/{parity}/N{n}",
                           ["timeavg", "--method", "exact", "--coin", selector, "--n", str(n),
                            "--initial", initial, "--parity", parity], "json")
            yield f"spectrum/{coin}/N{n}", ["spectrum", "--coin", selector, "--n", str(n)], "json"
            yield f"predict/{coin}/N{n}", ["predict", "--coin", selector, "--n", str(n)], None
        yield f"spectrum-stdout/{coin}/N9", ["spectrum", "--coin", selector, "--n", "9"], None
        for init_name, initial in initials.items():
            yield (f"timeavg-empirical/{coin}/{init_name}/T64/N9",
                   ["timeavg", "--method", "empirical", "--coin", selector, "--n", "9",
                    "--initial", initial, "--samples", "64"], "json")
    # the lattice-evolution benchmark's direct-evolution jobs
    for coin, init_name, initial in (("a1", "custom", custom), ("grover", "R", "R")):
        for fmt in ("csv", "json"):
            yield (f"simulate/direct/{coin}/{init_name}/N201/t200/{fmt}",
                   ["simulate", "--coin", coin, "--n", "201", "--steps", "200",
                    "--initial", initial, "--format", fmt], fmt)
    yield ("timeavg-empirical/grover/R/T20000/N21",
           ["timeavg", "--method", "empirical", "--coin", "grover", "--n", "21",
            "--initial", "R", "--samples", "20000"], "json")
    for coin, selector in (("grover", "grover"), ("a4:0.5", "a4:0.5"),
                           ("grover-file", grover_file)):
        for parity in PARITIES:
            for suffix in (None, "json"):
                yield (f"timeavg-closed-form/{coin}/{parity}/N9/{suffix or 'stdout'}",
                       ["timeavg", "--method", "closed-form", "--coin", selector, "--n", "9",
                        "--initial", "R", "--parity", parity], suffix)
    for init_name, initial in {"R": "R", "L": "L", "U": "U", "D": "D", "custom": custom}.items():
        yield (f"timeavg-limit/{init_name}",
               ["timeavg", "--method", "limit", "--initial", initial], "json")
    for samples in (2, 201, 2001):
        for suffix in (None, "csv"):
            yield (f"scan-alpha/{samples}/{suffix or 'stdout'}",
                   ["scan-alpha", "--samples", str(samples)], suffix)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def differences(base: list, records: list) -> list[str]:
    """One line per job that differs between two record lists, is new or is missing."""
    before = {record["job"]: record for record in base}
    after = {record["job"]: record for record in records}
    lines = []
    for job, record in after.items():
        if job not in before:
            lines.append(f"new: {job}")
        elif record != before[job]:
            fields = [key for key in record if record[key] != before[job].get(key)]
            lines.append(f"differs: {job} ({', '.join(fields)})")
    lines.extend(f"missing: {job}" for job in before if job not in after)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=pathlib.Path, help="JSON file to write")
    parser.add_argument("--against", type=pathlib.Path, metavar="BASE",
                        help="OUT.json of an earlier run to compare with")
    args = parser.parse_args(argv)
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        inputs = generate(SEED, tmp, haar_sizes=SIZES)
        grover_path = tmp / "grover.json"
        grover_path.write_text(json.dumps(GROVER_ENTRIES))
        for name, command, suffix in jobs(f"file:{inputs.haar_path}", inputs.custom,
                                          f"file:{grover_path}"):
            out = tmp / f"out.{suffix}"
            out.unlink(missing_ok=True)
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(command + (["--out", str(out)] if suffix else []))
            records.append({
                "job": name,
                "exit": code,
                "stdout_sha256": sha256(stdout.getvalue().encode()),
                "file_sha256": sha256(out.read_bytes()) if out.exists() else None,
            })
    payload = {"seed": SEED, "jobs": records}
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    failed = sum(record["exit"] != 0 for record in records)
    print(f"{len(records)} jobs, {failed} non-zero exits; wrote {args.out}")
    if args.against is None:
        return 1 if failed else 0
    changed = differences(json.loads(args.against.read_text())["jobs"], records)
    print("\n".join(changed + [f"{len(changed)} jobs differ from {args.against}"]))
    return 1 if failed or changed else 0


if __name__ == "__main__":
    sys.exit(main())
