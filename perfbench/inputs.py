"""
Seeded input generator.

Everything random in a run comes from `numpy.random.default_rng(seed)`:

- a Haar-random 4x4 unitary coin (QR of a complex Gaussian matrix, with
  the phases of R's diagonal folded into Q), written as a `file:` JSON
  coin of [re, im] pairs;
- random origin weights (a normalized complex Gaussian 4-vector), passed
  as a `custom:` literal with 17 significant digits per part.

The program sees only these generated inputs.  A Haar coin is redrawn,
from the same generator, while two of its walk eigenvalues at a size the
workload uses, or two of their squares, lie closer than REFERENCE_GAP in
phase without coinciding: there the tolerance-based grouping cannot
separate them and no reference can decide the answer.  About one draw in
six is redrawn; the rule depends only on the coin.
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass

import numpy as np

from reference import MARGIN, PHASE_TOL, group_by_phase

#: Smallest phase gap between distinct eigenvalues accepted in a Haar coin.
REFERENCE_GAP = MARGIN * PHASE_TOL


@dataclass(frozen=True)
class Inputs:
    seed: int
    weights: np.ndarray  # random origin weights, chirality order R, L, U, D
    custom: str  # the same weights as a `custom:` literal
    haar: np.ndarray  # the Haar coin, as written to `haar_path`
    haar_path: pathlib.Path


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))[None, :]


def origin_weights(rng: np.random.Generator) -> np.ndarray:
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return w / np.linalg.norm(w)


def custom_literal(weights: np.ndarray) -> str:
    return "custom:" + ",".join(f"{w.real:.17g}{w.imag:+.17g}i" for w in weights)


def walk_eigenvalues(coin: np.ndarray, size: int) -> np.ndarray:
    """All 4N^2 eigenvalues, one batched call over the momentum blocks."""
    k = 2.0 * math.pi * np.arange(size) / size
    kx, ky = np.meshgrid(k, k, indexing="ij")
    phases = np.exp(1j * np.stack([-kx, kx, -ky, ky], axis=-1))
    return np.linalg.eigvals(phases[..., :, None] * coin).reshape(-1)


def well_separated(coin: np.ndarray, sizes) -> bool:
    for size in sizes:
        values = walk_eigenvalues(coin, size)
        for probe in (values, values ** 2):
            _, _, diameter, gap = group_by_phase(probe)
            if diameter * MARGIN > PHASE_TOL or gap < REFERENCE_GAP:
                return False
    return True


def generate(seed: int, workdir: pathlib.Path, haar_sizes=()) -> Inputs:
    """Draw the run's inputs and write the Haar coin file into `workdir`."""
    rng = np.random.default_rng(seed)
    weights = origin_weights(rng)
    haar = haar_unitary(rng)
    while not well_separated(haar, haar_sizes):
        haar = haar_unitary(rng)
    path = workdir / "haar.json"
    path.write_text(json.dumps([[[v.real, v.imag] for v in row] for row in haar]))
    return Inputs(seed, weights, custom_literal(weights), haar, path)
