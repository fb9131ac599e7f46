"""
Correctness checks, run after the timed phase and not timed.

Every check compares the program's outputs -- captured stdout, the files
it wrote and the objects `origin_coefficients` returned -- with the
references in `reference.py` or with a property the method must have.
No check compares against stored program output.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from functools import lru_cache

import numpy as np

import reference as ref

#: Per-chirality agreement of exact averages, amplitudes and probabilities.
VALUE_TOL = 1e-10
#: all = (even + odd) / 2, totals, and empirical averages.
IDENTITY_TOL = 1e-12
#: Stdout carries 12 significant digits.
PRINTED_TOL = 1e-11
#: Largest probability allowed outside the light cone.
CONE_TOL = 1e-20

_COMPLEX = re.compile(r"^([+-]?[0-9.]+(?:e[+-]?\d+)?)(?:([+-][0-9.]+(?:e[+-]?\d+)?)i)?$")


def _parse_complex(text: str) -> complex:
    match = _COMPLEX.match(text.strip())
    if not match:
        raise ValueError(f"cannot parse {text!r}")
    return complex(float(match.group(1)), float(match.group(2) or 0.0))


def _stdout_fields(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return fields


class Checker:
    """Checks one workload's last-round outputs; collects problems."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.problems: list[str] = []
        self.checked = 0

    # -- references, cached per coin and size --------------------------

    def coin_matrix(self, selector: str) -> np.ndarray:
        if selector.startswith("file:"):
            return self.inputs.haar
        return ref.paper_coin(selector)

    def weights(self, initial: str) -> np.ndarray:
        if initial == "R":
            return np.array([1, 0, 0, 0], dtype=np.complex128)
        return self.inputs.weights

    @lru_cache(maxsize=None)
    def momentum(self, selector: str, size: int) -> ref.MomentumReference:
        return ref.MomentumReference(self.coin_matrix(selector), size)

    @lru_cache(maxsize=None)
    def full(self, selector: str, size: int) -> ref.FullOperatorReference:
        return ref.FullOperatorReference(self.coin_matrix(selector), size)

    @lru_cache(maxsize=None)
    def expansion(self, selector: str, size: int, initial: str) -> ref.Expansion:
        return self.momentum(selector, size).expansion(self.weights(initial))

    @lru_cache(maxsize=None)
    def evolved(self, selector: str, size: int, initial: str, steps: int) -> np.ndarray:
        stepper = ref.Stepper(self.coin_matrix(selector), size)
        return ref.probabilities(stepper.run(self.weights(initial), steps))

    # -- bookkeeping ----------------------------------------------------

    def expect(self, ok: bool, job, message: str) -> None:
        self.checked += 1
        if not ok:
            self.problems.append(f"{job.name}: {message}")

    def close(self, got, want, tol, job, what) -> None:
        gap = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
        self.expect(gap <= tol, job, f"{what} off by {gap:.3e} > {tol:.0e}")

    # -- per command ----------------------------------------------------

    def run(self, outputs) -> list[str]:
        """`outputs` maps each job to (stdout, returned object) of a job that
        completed; jobs that failed are counted apart and not checked."""
        averages = defaultdict(dict)
        for job, (stdout, result) in outputs.items():
            try:
                if job.command == "timeavg-exact":
                    averages[(job.coin, job.size, job.initial)][job.parity] = (
                        self.timeavg_exact(job, stdout), job)
                elif job.command == "spectrum":
                    self.spectrum(job)
                elif job.command == "predict":
                    self.predict(job, stdout)
                elif job.command == "origin-coefficients":
                    self.origin_coefficients(job, result)
                elif job.command == "simulate":
                    self.simulate(job, stdout)
                elif job.command == "timeavg-empirical":
                    self.timeavg_empirical(job)
            except Exception as exc:  # output the check cannot read is a failed check
                self.expect(False, job, f"check could not run: {exc!r}")
        for by_parity in averages.values():
            if set(by_parity) == {"all", "even", "odd"}:
                (every, job), (even, _), (odd, _) = (
                    by_parity["all"], by_parity["even"], by_parity["odd"])
                self.close(every, (even + odd) / 2.0, IDENTITY_TOL, job,
                           "all - (even + odd)/2")
        return self.problems

    def timeavg_exact(self, job, stdout: str) -> np.ndarray:
        data = json.loads(job.out.read_text())
        per = np.array([data["per_chirality"][c] for c in "RLUD"])
        self.expect(data["method"] == "exact" and data["parity"] == job.parity
                    and data["N"] == job.size, job, f"report header {data}")
        self.close(data["total"], per.sum(), IDENTITY_TOL, job, "total vs sum")
        printed = _stdout_fields(stdout)
        self.close([float(printed[c]) for c in "RLUD"], per, PRINTED_TOL, job,
                   "stdout vs file")
        want = self.expansion(job.coin, job.size, job.initial).time_average(job.parity)
        self.close(per, want, VALUE_TOL, job, "momentum reference")
        if job.size <= ref.FullOperatorReference.MAX_SIZE:
            full = self.full(job.coin, job.size).expansion(self.weights(job.initial))
            self.close(per, full.time_average(job.parity), VALUE_TOL, job,
                       "full-operator reference")
        if job.coin == "grover" and job.initial == "R":
            self.close(per[0], ref.closed_form(job.size, job.parity), VALUE_TOL, job,
                       "closed form")
        return per

    def _match_clusters(self, job, values, multiplicities, want_values, want_mult):
        self.expect(len(values) == len(want_values), job,
                    f"{len(values)} clusters, reference has {len(want_values)}")
        used = set()
        for value, mult in zip(values, multiplicities):
            distance = np.abs(np.angle(want_values / value))
            best = int(np.argmin(distance))
            ok = distance[best] <= 10 * ref.PHASE_TOL and want_mult[best] == mult
            self.expect(ok and best not in used, job,
                        f"cluster {value:.12g} x{mult} has no reference match")
            used.add(best)

    def spectrum(self, job) -> None:
        data = json.loads(job.out.read_text())
        values = np.array([complex(*c["value"]) for c in data["clusters"]])
        mult = np.array([c["multiplicity"] for c in data["clusters"]])
        n2 = job.size ** 2
        self.expect(int(mult.sum()) == 4 * n2, job, f"multiplicities sum to {mult.sum()}")
        want_values, want_mult = self.momentum(job.coin, job.size).clusters()
        self._match_clusters(job, values, mult, want_values, want_mult)
        if job.coin == "grover" or job.coin.startswith("a4:"):
            for target, count in ((-1.0, n2 + 2), (1.0, n2)):
                at = mult[np.abs(values - target) <= 1e-8]
                self.expect(list(at) == [count], job,
                            f"multiplicity at {target:+g} is {list(at)}, want {count}")

    def predict(self, job, stdout: str) -> None:
        printed = _stdout_fields(stdout)
        reference = self.momentum(job.coin, job.size)
        common = reference.common_eigenvalues()
        self.expect(printed["localizing"] == ("yes" if common else "no"), job,
                    f"verdict {printed['localizing']!r}, reference common {common}")
        got = [_parse_complex(v) for v in printed.get("common eigenvalues", "").split(",")
               if v.strip()]
        self.expect(len(got) == len(common) and all(
            min(abs(g - c) for c in common) <= PRINTED_TOL for g in got), job,
            f"common eigenvalues {got}, reference {common}")
        _, mult = reference.clusters()
        self.expect(int(printed["max multiplicity"]) == int(mult.max()), job,
                    f"max multiplicity {printed['max multiplicity']}, reference {mult.max()}")

    def origin_coefficients(self, job, result) -> None:
        n2 = job.size ** 2
        w = self.weights(job.initial)
        values = np.array([v for v, _ in result.merged])
        amps = np.array([a for _, a in result.merged])
        want = self.expansion(job.coin, job.size, job.initial)
        want_values, want_amps = want.merged()
        self.expect(len(values) == len(want_values), job,
                    f"{len(values)} merged eigenvalues, reference has {len(want_values)}")
        for value, amp in zip(values, amps):
            best = int(np.argmin(np.abs(want_values - value)))
            self.close(value, want_values[best], 10 * ref.PHASE_TOL, job, "merged eigenvalue")
            self.close(amp, want_amps[best], VALUE_TOL, job, f"A({value:.6g})")
        self.close(amps.sum(axis=0), w, VALUE_TOL, job, "sum of merged amplitudes vs weights")
        classes = sum(c.weights for c in result.classes) / n2
        self.close(classes, w, VALUE_TOL, job, "sum of class weights / N^2 vs weights")
        for target, got in ((1.0, result.c_plus), (-1.0, result.c_minus)):
            near = np.abs(want_values - target) <= 10 * ref.PHASE_TOL
            expected = want_amps[near].sum(axis=0) if near.any() else np.zeros(4)
            self.close(got / n2, expected, VALUE_TOL, job, f"c at {target:+g}")
        steps = 2 * job.size
        history = ref.Stepper(self.coin_matrix(job.coin), job.size).origin_history(w, steps)
        got = np.array([result.amplitude(t) for t in range(steps + 1)])
        self.close(got, history, VALUE_TOL, job, "amplitude(t) vs reference stepper")

    def simulate(self, job, stdout: str) -> None:
        size, steps = job.size, job.steps
        if job.fmt == "csv":
            lines = job.out.read_text().splitlines()
            self.expect(lines[0] == "x,y,p", job, f"CSV header {lines[0]!r}")
            rows = [line.split(",") for line in lines[1:]]
        else:
            data = json.loads(job.out.read_text())
            self.expect(data["N"] == size and data["t"] == steps
                        and data["initial"] == job.initial
                        and data["columns"] == ["x", "y", "p"], job,
                        "JSON metadata")
            rows = data["rows"]
        xs = np.array([int(r[0]) for r in rows])
        ys = np.array([int(r[1]) for r in rows])
        ps = np.array([float(r[2]) for r in rows])
        sites = set(zip(xs.tolist(), ys.tolist()))
        half = (size - 1) // 2
        self.expect(len(rows) == size * size and len(sites) == size * size
                    and np.abs(xs).max() == half and np.abs(ys).max() == half, job,
                    "rows do not cover the lattice once")
        want = self.evolved(job.coin, size, job.initial, steps)
        self.close(ps, want[xs % size, ys % size], VALUE_TOL, job, "grid vs reference stepper")
        self.close(ps.sum(), 1.0, VALUE_TOL, job, "norm drift")
        if steps < size / 2:
            outside = (np.abs(xs) + np.abs(ys) > steps) | ((xs + ys - steps) % 2 != 0)
            self.expect(ps[outside].max() <= CONE_TOL, job,
                        f"probability {ps[outside].max():.3e} outside the light cone")
        printed = _stdout_fields(stdout)
        self.close(float(printed["origin probability"]), want[0, 0], PRINTED_TOL, job,
                   "printed origin probability")
        match = re.match(r"^(\S+) at \((-?\d+), (-?\d+)\)$", printed["grid maximum"])
        peak, x, y = float(match.group(1)), int(match.group(2)), int(match.group(3))
        self.close(peak, want.max(), PRINTED_TOL, job, "printed grid maximum")
        self.close(want[x % size, y % size], want.max(), PRINTED_TOL, job,
                   "printed maximum site")

    def timeavg_empirical(self, job) -> None:
        data = json.loads(job.out.read_text())
        per = np.array([data["per_chirality"][c] for c in "RLUD"])
        self.expect(data["method"] == "empirical" and data["samples"] == job.steps,
                    job, "report header")
        stepper = ref.Stepper(self.coin_matrix(job.coin), job.size)
        history = stepper.origin_history(self.weights(job.initial), job.steps - 1)
        t = np.arange(job.steps)
        keep = {"all": t >= 0, "even": t % 2 == 0, "odd": t % 2 == 1}[job.parity]
        want = (np.abs(history[keep]) ** 2).mean(axis=0)
        self.close(per, want, IDENTITY_TOL, job, "average vs reference stepper")
        self.close(data["total"], per.sum(), IDENTITY_TOL, job, "total vs sum")
