"""
Per-layer tracing from outside the program.

`Tracer.install` wraps public functions of qwalk2d, wherever a qwalk2d
module holds a reference to them, and the numpy.linalg / numpy.fft calls
those functions make.  Each wrapper records a span (name, duration, time
covered by child spans) and counts at the same boundary.  A layer's self
time is its span time minus its children's.  `uninstall` restores every
original, so untimed checks and untraced rounds run unwrapped.  A wrapped
function the program no longer has stops `install` with an error,
and a counter that cannot read a call's arguments or result fails that
call's job: a layer that cannot be measured never reads as 0.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

#: Layer metrics in the order BENCHMARK.json lists them, with their units.
METRICS = {
    "evolve.step_calls": "count",
    "evolve.step_s": "s",
    "evolve.site_steps_per_s": "1/s",
    "evolve.step_peak_alloc_bytes": "bytes",
    "spectral.evolve_spectral_s": "s",
    "spectral.fft_s": "s",
    "spectral.solve_calls": "count",
    "spectral.eig_calls": "count",
    "spectral.eig_matrices": "count",
    "spectral.eig_s": "s",
    "spectral.eig_per_block": "ratio",
    "spectral.build_block_s": "s",
    "spectral.decomposition_build_s": "s",
    "spectral.cluster_s": "s",
    "spectral.eigenvalues_clustered": "count",
    "spectral.clusters_found": "count",
    "spectral.max_multiplicity": "count",
    "spectral.build_peak_alloc_bytes": "bytes",
    "spectral.origin_amplitudes_s": "s",
    "spectral.origin_coefficients_s": "s",
    "timeavg.exact_s": "s",
    "timeavg.pairing_s": "s",
    "timeavg.empirical_s": "s",
    "timeavg.predictor_s": "s",
    "state.write_grid_csv_s": "s",
    "state.write_grid_json_s": "s",
    "timeavg.write_report_json_s": "s",
    "spectral.write_json_s": "s",
    "writers.bytes_written": "bytes",
    "cli.self_s": "s",
    "setup.scipy_import_s": "s",
    "setup.qwalk2d_own_import_s": "s",
    "trace.overhead_pct": "%",
}


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []  # [start, child time] per open span
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.max_multiplicity = 0

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, module, attr, name, after=None) -> None:
        """Wrap `module.attr` in every qwalk2d module that binds it."""
        fn = getattr(module, attr)
        wrapper = self._wrap(name, fn, after)
        for mod_name, owner in list(sys.modules.items()):
            if mod_name == "qwalk2d" or mod_name.startswith("qwalk2d."):
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        self._patch(owner, key, wrapper)

    def _patch_method(self, cls, attr, name, after=None) -> None:
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__, after)))
        else:
            self._patch(cls, attr, self._wrap(name, raw, after))

    # -- counters ---------------------------------------------------------

    @staticmethod
    def _argument(args, kwargs, index, key):
        return kwargs[key] if key in kwargs else args[index]

    def _on_eig(self, args, kwargs, result):
        matrices = np.shape(self._argument(args, kwargs, 0, "a"))[:-2]
        self.counts["eig_matrices"] += int(np.prod(matrices, dtype=np.int64))

    def _on_step(self, args, kwargs, result):
        self.counts["site_steps"] += self._argument(args, kwargs, 0, "state").n ** 2

    def _on_build(self, args, kwargs, result):
        size = self._argument(args, kwargs, 2, "size")  # (cls, coin, size)
        self.counts["eigenvalues_clustered"] += 4 * size * size
        multiplicities = [cluster.multiplicity for cluster in result.clusters]
        self.counts["clusters_found"] += len(multiplicities)
        self.max_multiplicity = max([self.max_multiplicity, *multiplicities])

    def _on_amplitudes(self, args, kwargs, result):
        size = self._argument(args, kwargs, 2, "size")
        self.counts["eigenvalues_clustered"] += 4 * size * size
        self.counts["clusters_found"] += len(result)

    def _on_write(self, args, kwargs, result):
        self.counts["bytes_written"] += os.path.getsize(self._argument(args, kwargs, 1, "path"))

    # -- install ----------------------------------------------------------

    def install(self) -> None:
        # the package re-exports `evolve` the function over `evolve` the module
        cli, ev, sp, st, ta = (importlib.import_module(f"qwalk2d.{name}") for name in
                               ("cli", "evolve", "spectral", "state", "timeavg"))
        for owner, attr, name, after in (
            (np.linalg, "eig", "numpy.linalg.eig", self._on_eig),
            (np.linalg, "qr", "numpy.linalg.qr", None),
            (np.linalg, "solve", "numpy.linalg.solve", None),
            (np.fft, "fft2", "numpy.fft", None),
            (np.fft, "ifft2", "numpy.fft", None),
        ):
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr), after))
        for module, attr, name, after in (
            (cli, "main", "cli.main", None),
            (ev, "step", "evolve.step", self._on_step),
            (sp, "evolve_spectral", "spectral.evolve_spectral", None),
            (sp, "build_block", "spectral.build_block", None),
            (sp, "origin_eigenvalue_amplitudes", "spectral.origin_eigenvalue_amplitudes",
             self._on_amplitudes),
            (sp, "origin_coefficients", "spectral.origin_coefficients", None),
            (ta, "exact_time_average", "timeavg.exact_time_average", None),
            (ta, "empirical_time_average", "timeavg.empirical_time_average", None),
            (ta, "localization_predictor", "timeavg.localization_predictor", None),
            (st, "write_grid_csv", "state.write_grid_csv", self._on_write),
            (st, "write_grid_json", "state.write_grid_json", self._on_write),
            (ta, "write_report_json", "timeavg.write_report_json", self._on_write),
        ):
            self._patch_function(module, attr, name, after)
        decomposition = sp.SpectralDecomposition
        self._patch_method(decomposition, "build", "spectral.SpectralDecomposition.build",
                           self._on_build)
        self._patch_method(decomposition, "write_json",
                           "spectral.SpectralDecomposition.write_json", self._on_write)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- metrics ------------------------------------------------------------

    def layer_metrics(self, blocks_needed: int) -> dict[str, float]:
        """Metrics of the spans recorded since `reset`, for one round whose
        jobs need `blocks_needed` distinct momentum blocks diagonalized."""
        t, own = self.total, self.self_time
        step_s = t["evolve.step"]
        return {
            "evolve.step_calls": self.calls["evolve.step"],
            "evolve.step_s": step_s,
            "evolve.site_steps_per_s": self.counts["site_steps"] / step_s if step_s else 0.0,
            "spectral.evolve_spectral_s": t["spectral.evolve_spectral"],
            "spectral.fft_s": t["numpy.fft"],
            "spectral.solve_calls": self.calls["numpy.linalg.solve"],
            "spectral.eig_calls": self.calls["numpy.linalg.eig"],
            "spectral.eig_matrices": self.counts["eig_matrices"],
            "spectral.eig_s": t["numpy.linalg.eig"],
            "spectral.eig_per_block": (self.counts["eig_matrices"] / blocks_needed
                                       if blocks_needed else 0.0),
            "spectral.build_block_s": t["spectral.build_block"],
            "spectral.decomposition_build_s": t["spectral.SpectralDecomposition.build"],
            "spectral.cluster_s": (own["spectral.SpectralDecomposition.build"]
                                   + own["spectral.origin_eigenvalue_amplitudes"]),
            "spectral.eigenvalues_clustered": self.counts["eigenvalues_clustered"],
            "spectral.clusters_found": self.counts["clusters_found"],
            "spectral.max_multiplicity": self.max_multiplicity,
            "spectral.origin_amplitudes_s": t["spectral.origin_eigenvalue_amplitudes"],
            "spectral.origin_coefficients_s": t["spectral.origin_coefficients"],
            "timeavg.exact_s": t["timeavg.exact_time_average"],
            "timeavg.pairing_s": own["timeavg.exact_time_average"],
            "timeavg.empirical_s": t["timeavg.empirical_time_average"],
            "timeavg.predictor_s": t["timeavg.localization_predictor"],
            "state.write_grid_csv_s": t["state.write_grid_csv"],
            "state.write_grid_json_s": t["state.write_grid_json"],
            "timeavg.write_report_json_s": t["timeavg.write_report_json"],
            "spectral.write_json_s": t["spectral.SpectralDecomposition.write_json"],
            "writers.bytes_written": self.counts["bytes_written"],
            "cli.self_s": own["cli.main"],
        }

    def spans(self) -> dict[str, dict[str, float]]:
        return {
            name: {"calls": self.calls[name], "total_s": self.total[name],
                   "self_s": self.self_time[name]}
            for name in sorted(self.calls)
        }


def peak_alloc(fn, *args) -> int:
    """tracemalloc peak, in bytes, of the allocations one call makes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
