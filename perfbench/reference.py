"""
Independent references for the benchmark's correctness checks.

Nothing here imports qwalk2d.  Each reference is derived from the walk's
definition -- coin at every site, then a one-site shift of R, L, U, D
along +x, -x, +y, -y on the periodic N x N lattice -- and shares no code
with the package:

- `Stepper`: direct evolution by precomputed index arithmetic.
- `full_operator` / `FullOperatorReference`: the 4N^2 x 4N^2 one-step
  operator and its complex Schur decomposition (N <= 9 only).
- `MomentumReference`: per-momentum 4x4 blocks, each put in complex
  Schur form so the eigenvectors stay unitary inside degenerate blocks,
  with eigenvalues grouped by sorted eigenphase and a wrap-around merge
  at +-pi.
- `closed_form`: the paper's finite-N polynomials for the Grover walk
  started in R, retyped here.

Amplitudes use the layout psi[x mod N, y mod N, chirality], so the
origin sits at index (0, 0).
"""

from __future__ import annotations

import math

import numpy as np

#: Eigenphase tolerance for treating two eigenvalues as one.
PHASE_TOL = 1e-9
#: Clusters must be this much tighter than PHASE_TOL, and gaps this much wider.
MARGIN = 10.0
#: Off-diagonal mass allowed in the Schur form of a unitary (normal) matrix.
SCHUR_OFFDIAG_TOL = 1e-10


class ReferenceError(RuntimeError):
    """The reference cannot decide: its own numeric margins failed."""


def paper_coin(name: str) -> np.ndarray:
    """The paper's coins, retyped: `grover`, `a1`, `a2` and `a4:p`."""
    if name == "grover":
        return 0.5 * np.ones((4, 4)) - np.eye(4)
    if name == "a1":
        s = 1.0 / math.sqrt(2.0)
        return np.array([[0, 0, -s, s], [0, 0, s, s], [s, -s, 0, 0], [s, s, 0, 0]])
    if name == "a2":
        s = 1.0 / math.sqrt(3.0)
        return np.array([[-s, 0, s, s], [0, -s, -s, s], [s, -s, s, 0], [s, s, 0, s]])
    if name.startswith("a4:"):
        p = float(name[3:])
        q = 1.0 - p
        r = math.sqrt(p * q)
        return np.array([[-p, q, r, r], [q, -p, r, r], [r, r, -q, p], [r, r, p, -q]])
    raise ValueError(f"no paper coin named {name!r}")


def closed_form(size: int, parity: str) -> float:
    """Time-averaged R-chirality probability at the origin, Grover coin,
    pure R start, odd lattice of size N (finite-N polynomials)."""
    n = float(size)
    common = 5.0 / (4.0 * n ** 4) - 2.0 / n ** 3
    if parity == "all":
        return 1.0 / 8.0 + 5.0 / (4.0 * n ** 2) + common
    if parity == "even":
        return 1.0 / 4.0 + 3.0 / (2.0 * n ** 2) + common
    if parity == "odd":
        return 1.0 / n ** 2 + common
    raise ValueError(parity)


def group_by_phase(values: np.ndarray):
    """
    Label unimodular values by eigenphase cluster.

    Phases are sorted; neighbours closer than PHASE_TOL share a label, and
    the first and last clusters merge when they meet across +-pi.
    Returns (labels, count, max_diameter, min_gap), diameters and gaps
    measured in phase.
    """
    values = np.asarray(values)
    phase = np.angle(values)
    order = np.argsort(phase, kind="stable")
    ordered = phase[order]
    steps = np.diff(ordered)
    sorted_labels = np.concatenate([[0], np.cumsum(steps > PHASE_TOL)])
    count = int(sorted_labels[-1]) + 1
    wrap_gap = ordered[0] + 2.0 * math.pi - ordered[-1]
    # within-cluster steps chain into a diameter; between-cluster steps are gaps
    inner = np.where(steps > PHASE_TOL, 0.0, steps)
    diameters = np.bincount(sorted_labels[1:], weights=inner, minlength=count)
    gaps = list(steps[steps > PHASE_TOL])
    if count > 1 and wrap_gap <= PHASE_TOL:
        diameters[0] += diameters[count - 1] + wrap_gap
        sorted_labels[sorted_labels == count - 1] = 0
        count -= 1
    elif count > 1:
        gaps.append(wrap_gap)
    labels = np.empty_like(sorted_labels)
    labels[order] = sorted_labels
    min_gap = min(gaps) if gaps else 2.0 * math.pi
    return labels, count, float(diameters[:count].max()), float(min_gap)


def _check_margins(diameter: float, gap: float, what: str) -> None:
    if diameter * MARGIN > PHASE_TOL or gap < MARGIN * PHASE_TOL:
        raise ReferenceError(
            f"{what}: cluster diameter {diameter:.3e} or gap {gap:.3e} too close "
            f"to the tolerance {PHASE_TOL:.0e}"
        )


def _cluster_sums(values, coefficients, what):
    """Sum `coefficients` rows per eigenphase cluster of `values`."""
    labels, count, diameter, gap = group_by_phase(values)
    _check_margins(diameter, gap, what)
    sums = np.zeros((count,) + coefficients.shape[1:], dtype=np.complex128)
    np.add.at(sums, labels, coefficients)
    means = np.zeros(count, dtype=np.complex128)
    np.add.at(means, labels, values)
    sizes = np.bincount(labels, minlength=count)
    return means / sizes, sizes, sums


def _unitary_schur(matrix: np.ndarray):
    """Eigenvalues and unitary eigenvectors of a unitary matrix."""
    import scipy.linalg  # deferred: the input generator imports this module during set-up

    t, z = scipy.linalg.schur(matrix, output="complex")
    off = np.abs(np.triu(t, 1)).max() if len(t) > 1 else 0.0
    if off > SCHUR_OFFDIAG_TOL:
        raise ReferenceError(f"Schur form not diagonal: off-diagonal {off:.3e}")
    return np.diag(t).copy(), z


def spectrum_clusters(values: np.ndarray):
    """(cluster values, multiplicities) of a whole spectrum."""
    means, sizes, _ = _cluster_sums(values, np.zeros((len(values), 1)), "spectrum")
    return means, sizes


class Expansion:
    """Eigenpairs (lambda_k, c_k) of the origin amplitude,
    psi_origin(t) = sum_k c_k lambda_k^t, with c_k a chirality 4-vector."""

    def __init__(self, values: np.ndarray, coefficients: np.ndarray):
        self.values = values
        self.coefficients = coefficients

    def merged(self):
        """(cluster values, summed coefficient vectors)."""
        means, _, sums = _cluster_sums(self.values, self.coefficients, "expansion")
        return means, sums

    def time_average(self, parity: str) -> np.ndarray:
        """Per-chirality infinite-horizon average of |psi_origin(t)|^2.

        Even and odd times group the expansion by lambda^2: on even t the
        coefficients add as they are, on odd t each carries one factor lambda.
        """
        if parity == "all":
            _, sums = self.merged()
            return (np.abs(sums) ** 2).sum(axis=0)
        weights = self.coefficients
        if parity == "odd":
            weights = weights * self.values[:, None]
        _, _, sums = _cluster_sums(self.values ** 2, weights, "squared spectrum")
        return (np.abs(sums) ** 2).sum(axis=0)

    def amplitude(self, t: int) -> np.ndarray:
        return (self.coefficients * (self.values ** t)[:, None]).sum(axis=0)


class MomentumReference:
    """
    Momentum-space reference.  Block (n, m) acts on the plane wave
    exp(2 pi i (n x + m y) / N); the shift multiplies R, L, U, D by
    exp(-i k_x), exp(i k_x), exp(-i k_y), exp(i k_y) after the coin.
    """

    def __init__(self, coin: np.ndarray, size: int):
        coin = np.asarray(coin, dtype=np.complex128)
        k = 2.0 * math.pi * np.arange(size) / size
        self.size = size
        self.block_values = np.empty((size * size, 4), dtype=np.complex128)
        self.block_vectors = np.empty((size * size, 4, 4), dtype=np.complex128)
        for n in range(size):
            for m in range(size):
                phases = np.exp(1j * np.array([-k[n], k[n], -k[m], k[m]]))
                values, vectors = _unitary_schur(phases[:, None] * coin)
                self.block_values[n * size + m] = values
                self.block_vectors[n * size + m] = vectors
        self.values = self.block_values.reshape(-1)

    def clusters(self):
        return spectrum_clusters(self.values)

    def expansion(self, weights) -> Expansion:
        """The origin amplitude sums every block equally: the origin delta
        has a flat Fourier transform, and the inverse transform at the
        origin is the mean over momenta."""
        z = self.block_vectors
        overlaps = np.einsum("bik,i->bk", z.conj(), np.asarray(weights, dtype=complex))
        coeff = z * overlaps[:, None, :] / self.size ** 2  # columns z_k (z_k^H w)
        return Expansion(self.values, coeff.transpose(0, 2, 1).reshape(-1, 4))

    def common_eigenvalues(self) -> list[complex]:
        """Eigenvalues of block (0, 0) found in every block, within PHASE_TOL."""
        common = []
        for value in self.block_values[0]:
            distance = np.abs(np.angle(self.block_values / value)).min(axis=1)
            if distance.max() <= PHASE_TOL and not any(
                abs(np.angle(value / c)) <= PHASE_TOL for c in common
            ):
                common.append(complex(value))
        return common


def full_operator(coin: np.ndarray, size: int) -> np.ndarray:
    """The 4N^2 x 4N^2 one-step operator, basis index (x * N + y) * 4 + c."""
    coin = np.asarray(coin, dtype=np.complex128)
    dim = 4 * size * size
    u = np.zeros((dim, dim), dtype=np.complex128)
    moves = ((1, 0), (-1, 0), (0, 1), (0, -1))
    for x in range(size):
        for y in range(size):
            src = (x * size + y) * 4
            for c, (dx, dy) in enumerate(moves):
                dst = (((x + dx) % size) * size + (y + dy) % size) * 4 + c
                u[dst, src:src + 4] = coin[c, :]
    return u


class FullOperatorReference:
    """Complex Schur decomposition of the full operator; small N only."""

    MAX_SIZE = 9

    def __init__(self, coin: np.ndarray, size: int):
        if size > self.MAX_SIZE:
            raise ValueError(f"full-operator reference is limited to N <= {self.MAX_SIZE}")
        self.size = size
        self.values, self.vectors = _unitary_schur(full_operator(coin, size))

    def clusters(self):
        return spectrum_clusters(self.values)

    def expansion(self, weights) -> Expansion:
        psi0 = np.zeros(len(self.values), dtype=np.complex128)
        psi0[:4] = weights  # the origin's four chirality components
        overlaps = self.vectors.conj().T @ psi0
        return Expansion(self.values, (self.vectors[:4, :] * overlaps[None, :]).T)


class Stepper:
    """Reference direct evolution by index arithmetic."""

    def __init__(self, coin: np.ndarray, size: int):
        self.coin = np.asarray(coin, dtype=np.complex128)
        self.size = size
        i = np.arange(size)
        self.from_minus = (i - 1) % size  # R and U arrive from x-1 / y-1
        self.from_plus = (i + 1) % size  # L and D arrive from x+1 / y+1

    def initial(self, weights) -> np.ndarray:
        psi = np.zeros((self.size, self.size, 4), dtype=np.complex128)
        psi[0, 0] = weights
        return psi

    def step(self, psi: np.ndarray) -> np.ndarray:
        mixed = np.einsum("ij,xyj->xyi", self.coin, psi)
        out = np.empty_like(mixed)
        out[:, :, 0] = mixed[self.from_minus, :, 0]
        out[:, :, 1] = mixed[self.from_plus, :, 1]
        out[:, :, 2] = mixed[:, self.from_minus, 2]
        out[:, :, 3] = mixed[:, self.from_plus, 3]
        return out

    def run(self, weights, steps: int) -> np.ndarray:
        psi = self.initial(weights)
        for _ in range(steps):
            psi = self.step(psi)
        return psi

    def origin_history(self, weights, steps: int) -> np.ndarray:
        """Origin amplitudes for t = 0 .. steps, shape (steps + 1, 4)."""
        psi = self.initial(weights)
        out = np.empty((steps + 1, 4), dtype=np.complex128)
        for t in range(steps + 1):
            out[t] = psi[0, 0]
            if t < steps:
                psi = self.step(psi)
        return out


def probabilities(psi: np.ndarray) -> np.ndarray:
    """Site probabilities in the psi layout (index x mod N, y mod N)."""
    return (np.abs(psi) ** 2).sum(axis=2)
