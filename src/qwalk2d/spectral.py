"""
Momentum-space diagonalization of the walk operator.

On the torus the one-step operator is block diagonal over momentum pairs
(n, m) in {0, ..., N-1}^2.  Acting on the chirality amplitudes of the
plane wave w^(n x + m y), w = exp(2 pi i / N), each block is the 4x4
unitary

    H(n, m) = diag(w^-n, w^n, w^-m, w^m) @ A,

where A is the coin.  Eigenvalues of every block lie on the unit circle;
collecting them over all N^2 blocks gives the full 4N^2 spectrum of the
walk.  For the diffusion (grover) coin the whole eigensystem is available
in closed form, and the strong degeneracy of the eigenvalues -1 and +1
(multiplicities N^2 + 2 and N^2) is what produces localization.

Closed forms for the diffusion coin
-----------------------------------
The grover coin is J/2 - I (J all ones), so with d the phases of block
(n, m) and s the sum of the components of v, H v = l v reads

    (l + d_i) v_i = d_i s / 2,

so every eigenvector is d / (l + d) up to normalization, except where
l + d_i vanishes (see `grover_eigenvectors`).

Within a degenerate eigenvalue the eigenvectors are fixed only up to
unitary mixing, so comparisons against the numeric backend must go
through projectors, never individual vectors.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

import numpy as np

from .coins import Coin, grover_coin
from .state import InitialSpec, WalkState, _check_size

__all__ = [
    "MomentumBlock",
    "OriginExpansion",
    "ClassCoefficients",
    "SpectralDecomposition",
    "SpectralError",
    "a1_eigenvalues",
    "build_block",
    "evolve_spectral",
    "grover_eigenvalues",
    "grover_eigenvectors",
    "origin_coefficients",
    "origin_eigenvalue_amplitudes",
]

#: Absolute tolerance in the complex plane for treating eigenvalues as equal.
DEGENERACY_TOL = 1e-9
#: Acceptance bound on ||H v - lambda v|| per eigenpair and on ||V^H V - I|| per block.
RESIDUAL_TOL = 1e-10
#: Momentum blocks `evolve_spectral` propagates together: a chunk's three
#: (4, 4, B) complex buffers take 768 B bytes, 1.2 MB, so they stay in a 2 MiB L2.
CHUNK_BLOCKS = 1536


class SpectralError(RuntimeError):
    """Numeric failure inside the spectral machinery."""


def momentum_phases(n, m, size: int) -> np.ndarray:
    """
    Diagonal phase factors (w^-n, w^n, w^-m, w^m) of block (n, m); momentum
    arrays broadcast, giving shape (..., 4).  Momenta are taken mod N and
    every phase is read from one table of w^k and w^-k, k = 0..N-1, so a
    block gets the same bits from every builder at the cost of 2N powers.
    """
    k = np.arange(size)
    w = np.exp(2j * np.pi / size)
    up, down = w ** k, w ** -k
    n, m = np.broadcast_arrays(np.mod(n, size), np.mod(m, size))
    return np.stack([down[n], up[n], down[m], up[m]], axis=-1)


def block_matrix(coin: Coin, n, m, size: int) -> np.ndarray:
    """The 4x4 block H(n, m) = diag(phases) @ coin, stacked over broadcast momenta."""
    return momentum_phases(n, m, size)[..., :, None] * coin.entries


def cluster_labels(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """
    Group unimodular values equal within DEGENERACY_TOL.

    The values are sorted by angle and split wherever neighbours lie more
    than the tolerance apart, so members chain as in a transitive closure.
    The runs at the two ends of the sort are joined when they meet across
    the branch cut at -1, where the diffusion coin's largest cluster sits.

    Returns the cluster means and one label per value: the members of
    cluster k are the values with label k.  The means are sorted by real
    part rounded to whole multiples of the tolerance, then by imaginary
    part, so values whose real parts agree in theory (conjugate pairs) keep
    their order whatever their last bits.
    """
    values = np.asarray(values)
    order = np.argsort(np.angle(values), kind="stable")
    ordered = values[order]
    runs = np.concatenate([[0], np.cumsum(np.abs(np.diff(ordered)) > DEGENERACY_TOL)])
    if runs[-1] > 0 and abs(ordered[-1] - ordered[0]) <= DEGENERACY_TOL:
        runs[runs == runs[-1]] = 0
    labels = np.empty_like(runs)
    labels[order] = runs
    means = sum_by_label(labels, values) / np.bincount(labels)
    rank = np.lexsort((means.imag, np.round(means.real / DEGENERACY_TOL)))
    relabel = np.empty_like(rank)
    relabel[rank] = np.arange(rank.size)
    return means[rank], relabel[labels]


def sum_by_label(labels: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Sum the rows sharing each label: entry k is the sum of rows[labels == k]."""
    rows = np.asarray(rows)
    sums = np.zeros((labels.max() + 1,) + rows.shape[1:], dtype=rows.dtype)
    np.add.at(sums, labels, rows)
    return sums


def _eigensystems(coin: Coin, n, m, size: int) -> tuple[np.ndarray, np.ndarray]:
    """
    Diagonalize the blocks H(n, m) over broadcast momentum arrays with one
    eig call.

    Returns the eigenvalues (..., 4), sorted within each block like the
    centres of `cluster_labels`, and the paired unit eigenvector columns
    (..., 4, 4).  Where an
    eigenvalue repeats within a block, its copies are replaced by their mean
    and its columns are QR-orthonormalized, so every eigenvector matrix is
    unitary.

    Raises
    ------
    SpectralError
        If the eigensolver fails, or the largest eigenpair residual or
        ||V^H V - I|| of a block exceeds 1e-10; the message names the block.
    """
    bn, bm = np.broadcast_arrays(n, m)
    h = block_matrix(coin, n, m, size)
    try:
        values, vectors = np.linalg.eig(h)
    except np.linalg.LinAlgError as exc:
        where = f"block ({bn}, {bm})" if bn.ndim == 0 else f"a stack of {bn.size} blocks"
        raise SpectralError(f"eigendecomposition failed for {where}: {exc}")
    close = np.abs(values[..., :, None] - values[..., None, :]) <= DEGENERACY_TOL
    for b in map(tuple, np.argwhere(close.sum(axis=(-2, -1)) > 4)):
        centres, labels = cluster_labels(values[b])
        values[b] = centres[labels]
        for label in np.flatnonzero(np.bincount(labels) > 1):
            group = labels == label
            vectors[b][:, group] = np.linalg.qr(vectors[b][:, group])[0]
    order = np.lexsort((values.imag, np.round(values.real / DEGENERACY_TOL)), axis=-1)
    values = np.take_along_axis(values, order, axis=-1)
    vectors = np.take_along_axis(vectors, order[..., None, :], axis=-1)
    checks = (
        ("eigenpair residual", h @ vectors - vectors * values[..., None, :]),
        ("eigenvector unitarity error", vectors.conj().swapaxes(-1, -2) @ vectors - np.eye(4)),
    )
    for what, error in checks:
        error = np.abs(error).max(axis=(-2, -1))
        worst = np.unravel_index(np.argmax(error), error.shape)
        if not error[worst] <= RESIDUAL_TOL:
            raise SpectralError(
                f"{what} {error[worst]:.3e} in block ({bn[worst]}, {bm[worst]}) "
                f"exceeds {RESIDUAL_TOL:.0e}"
            )
    return values, vectors


@dataclass(frozen=True)
class MomentumBlock:
    """
    One momentum block with its numeric eigensystem.

    `eigenvectors` holds unit column vectors paired with `eigenvalues`;
    within each degenerate eigenvalue the columns are orthonormalized.
    """

    n: int
    m: int
    size: int
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def build_block(coin: Coin, n: int, m: int, size: int) -> MomentumBlock:
    """
    Assemble block (n, m) and diagonalize it numerically.

    Raises
    ------
    SpectralError
        If the eigensolver fails, or an eigenpair residual or the deviation
        of the eigenvectors from orthonormality exceeds 1e-10; the message
        carries the block coordinates.
    """
    if not (0 <= n < size and 0 <= m < size):
        raise ValueError(f"momenta must lie in 0..{size - 1}, got ({n}, {m})")
    values, vectors = _eigensystems(coin, n, m, size)
    return MomentumBlock(n, m, size, block_matrix(coin, n, m, size), values, vectors)


# ---------------------------------------------------------------------------
# Closed forms for the diffusion coin
# ---------------------------------------------------------------------------

def grover_eigenvalues(n, m, size: int) -> np.ndarray:
    """
    Closed-form eigenvalues of the grover block (n, m), ordered
    [-1, +1, l3, l4].  Momentum arrays broadcast, giving shape (..., 4);
    scalar momenta give shape (4,).

    Off the diagonal l3/l4 = (-c -+ i sqrt(4 - c^2))/2 with
    c = cos(2 pi n / N) + cos(2 pi m / N), so Im(l3) <= 0 <= Im(l4).  On
    the diagonal (n == m) l3 = -w^n and l4 = -w^-n, so Im(l3) > 0 for
    n > N/2.  The diagonal values are read from `momentum_phases`, the one
    source of phases for every block builder.
    """
    n, m = np.broadcast_arrays(n, m)
    d = momentum_phases(n, m, size)
    c = np.cos(2 * np.pi * n / size) + np.cos(2 * np.pi * m / size)
    root = np.sqrt(4.0 - c * c)
    l3 = np.where(n == m, -d[..., 1], (-c - 1j * root) / 2.0)
    l4 = np.where(n == m, -d[..., 0], (-c + 1j * root) / 2.0)
    return np.stack(np.broadcast_arrays(-1.0, 1.0, l3, l4), axis=-1)


_ORIGIN_VECTORS = np.array(
    [[-1, 1, -1, 1], [1, 1, 1, 1], [0, -1, 0, 1], [-1, 0, 1, 0]]
).T / [2.0, 2.0, np.sqrt(2.0), np.sqrt(2.0)]


def grover_eigenvectors(n, m, size: int) -> np.ndarray:
    """
    Closed-form unit eigenvectors of the grover block (n, m) as columns,
    paired with the eigenvalue order of `grover_eigenvalues`.  Momentum
    arrays broadcast, giving shape (..., 4, 4).

    With d = momentum_phases(n, m, size), the column of eigenvalue l is
    d / (l + d), normalized.  Where l + d_i vanishes, l = -d_i = -d_j for
    one pair i < j (on axis, diagonal and antidiagonal blocks) and the
    column is (e_j - e_i)/sqrt(2).  Block (0, 0), where l = -1 is
    threefold, has the fixed columns (-1, 1, -1, 1)/2, (1, 1, 1, 1)/2,
    (e_4 - e_2)/sqrt(2) and (e_3 - e_1)/sqrt(2).  An even N or one
    below 3 raises ValueError.
    """
    _check_size(size)
    n, m = np.broadcast_arrays(n, m)
    d = momentum_phases(n, m, size)[..., :, None]
    shift = grover_eigenvalues(n, m, size)[..., None, :] + d
    vanishes = np.abs(shift) <= DEGENERACY_TOL
    # -1 at the first vanishing component i, +1 at the second j
    pair = np.where(vanishes, 2 * np.cumsum(vanishes, axis=-2) - 3, 0)
    columns = np.where(
        vanishes.any(axis=-2, keepdims=True), pair, d / np.where(vanishes, 1.0, shift)
    )
    columns = columns / np.linalg.norm(columns, axis=-2, keepdims=True)
    return np.where(((n == 0) & (m == 0))[..., None, None], _ORIGIN_VECTORS, columns)


def a1_eigenvalues(n: int, m: int, size: int) -> np.ndarray:
    """
    Closed-form eigenvalues of the a1 block (n, m):
    +-sqrt(i cos(xi_n) sin(xi_m) +- sqrt(1 - cos^2(xi_n) sin^2(xi_m))),
    xi_j = 2 pi j / N.  All four are unimodular; no value is shared by
    every block, which is why the a1 walk does not localize.
    """
    xn = 2 * np.pi * n / size
    xm = 2 * np.pi * m / size
    sc = np.cos(xn) * np.sin(xm)
    root = np.sqrt(1.0 - sc * sc)
    mu_plus = 1j * sc + root
    mu_minus = 1j * sc - root
    return np.array(
        [
            np.sqrt(mu_plus),
            -np.sqrt(mu_plus),
            np.sqrt(mu_minus),
            -np.sqrt(mu_minus),
        ]
    )


# ---------------------------------------------------------------------------
# Clustered global spectrum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenvalueCluster:
    """A distinct eigenvalue of the full walk operator with its multiplicity."""

    value: complex
    multiplicity: int


@dataclass(frozen=True)
class SpectralDecomposition:
    """
    The eigenvalues of all N^2 momentum blocks of a coin plus the clustered
    global spectrum.

    `values` (N, N, 4) holds each block's eigenvalues in the order of
    `build_block`; `labels` (N, N, 4) gives the index in `clusters` of each
    entry of `values`.
    """

    coin: Coin
    size: int
    values: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)
    clusters: tuple[EigenvalueCluster, ...] = field(repr=False)

    @classmethod
    def build(cls, coin: Coin, size: int) -> "SpectralDecomposition":
        momenta = np.arange(_check_size(size))
        values = _eigensystems(coin, momenta[:, None], momenta, size)[0]
        centres, labels = cluster_labels(values.ravel())
        clusters = tuple(
            map(EigenvalueCluster, centres.tolist(), np.bincount(labels).tolist())
        )
        return cls(coin, size, values, labels.reshape(values.shape), clusters)

    def common_eigenvalues(self) -> tuple[complex, ...]:
        """Eigenvalues present in every momentum block."""
        blocks = self.size ** 2
        labels = self.labels.ravel()
        # one entry per distinct (cluster, block) pair
        pairs = np.unique(labels * blocks + np.arange(labels.size) // 4)
        present = np.bincount(pairs // blocks, minlength=len(self.clusters))
        return tuple(
            cluster.value
            for cluster, count in zip(self.clusters, present)
            if count == blocks
        )

    def max_multiplicity(self) -> int:
        return max(cluster.multiplicity for cluster in self.clusters)

    def to_payload(self) -> dict:
        ordered = sorted(self.clusters, key=lambda c: -c.multiplicity)
        return {
            "coin": self.coin.label,
            "N": self.size,
            "clusters": [
                {
                    "value": [cluster.value.real, cluster.value.imag],
                    "multiplicity": cluster.multiplicity,
                }
                for cluster in ordered
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n"

    def write_json(self, path) -> None:
        pathlib.Path(path).write_text(self.to_json())


# ---------------------------------------------------------------------------
# Spectral evolution
# ---------------------------------------------------------------------------

def _propagate(flat: np.ndarray, coin: Coin, t: int, size: int) -> None:
    """
    Replace each row of `flat`, the (N^2, 4) Fourier amplitudes with block
    (n, m) at row n N + m, by H(n, m)^t times it.  The chunk buffers are
    freed on return, before the caller allocates the inverse transform.
    """
    bits = t.bit_length()
    width = min(CHUNK_BLOCKS, len(flat))
    buffers = [np.empty((4, 4, width), dtype=np.complex128) for _ in range(3)]
    for start in range(0, len(flat), width):
        stop = min(start + width, len(flat))
        power, square, term = (buffer[..., : stop - start] for buffer in buffers)
        n, m = np.divmod(np.arange(start, stop), size)
        np.multiply(momentum_phases(n, m, size).T[:, None, :], coin.entries[..., None], out=power)
        v = flat[start:stop].T
        for bit in range(bits):
            if t >> bit & 1:
                v = np.einsum("ijb,jb->ib", power, v)
            if bit + 1 < bits:
                np.multiply(power[:, :1], power[None, 0], out=square)
                for j in range(1, 4):
                    np.multiply(power[:, j : j + 1], power[None, j], out=term)
                    square += term
                power, square = square, power
        flat[start:stop] = v.T


def evolve_spectral(initial: WalkState, coin: Coin, t: int) -> WalkState:
    """
    State after t steps, propagated in momentum space instead of
    step-by-step evolution.

    The amplitudes are Fourier transformed, each momentum component is
    multiplied by the t-th power of its block, and the result is
    transformed back.  The N^2 blocks are walked in chunks of CHUNK_BLOCKS,
    held batch-last: the blocks Z as (4, 4, B), built from the phases and
    the coin, and their Fourier amplitudes v as (4, B).  The power is
    applied to the state, not formed: for each set bit of t, v <- Z v, and
    between bits Z <- Z Z, as four broadcast multiply-adds into reused
    buffers.  That is O(log t) elementwise passes per chunk and no
    per-block matrix call.
    """
    t = int(t)
    if t < 0:
        raise ValueError(f"steps must be nonnegative, got {t}")
    size = initial.n
    flat = np.fft.fft2(initial.amplitudes, axes=(0, 1)).reshape(-1, 4)
    _propagate(flat, coin, t, size)
    amplitudes = np.fft.ifft2(flat.reshape(size, size, 4), axes=(0, 1))
    return WalkState(amplitudes, initial.t + t, validate=False)


# ---------------------------------------------------------------------------
# Origin-amplitude coefficients
# ---------------------------------------------------------------------------

def _origin_terms(coin: Coin, weights: np.ndarray, size: int):
    """
    Eigenvalues of all N^2 blocks, flattened to (4 N^2,), with the
    projection v (v^H weights) of the initial chirality vector on each
    paired eigenvector, (4 N^2, 4).  Every block is diagonalized once.
    """
    momenta = np.arange(_check_size(size))
    values, vectors = _eigensystems(coin, momenta[:, None], momenta, size)
    terms = vectors * (vectors.conj().swapaxes(-1, -2) @ weights)[..., None, :]
    return values.reshape(-1), terms.swapaxes(-1, -2).reshape(-1, 4)


def origin_eigenvalue_amplitudes(
    coin: Coin, initial: InitialSpec, size: int
) -> list[tuple[complex, np.ndarray]]:
    """
    Exact expansion of the origin amplitude over distinct eigenvalues.

    For an origin-localized initial state the amplitude of chirality i at
    the origin is exactly

        psi_i(t) = sum over distinct eigenvalues l of  A_l[i] * l^t,

    where A_l collects (1/N^2) times the eigenspace projections of the
    initial chirality vector over every block containing l.  Returns the
    merged (eigenvalue, A_l) list in the order of `cluster_labels`: by real
    part rounded to whole multiples of DEGENERACY_TOL, then by imaginary part.
    """
    values, terms = _origin_terms(coin, initial.weights, size)
    centres, labels = cluster_labels(values)
    return list(zip(centres.tolist(), sum_by_label(labels, terms) / size ** 2))


@dataclass(frozen=True)
class ClassCoefficients:
    """
    Aggregated origin-expansion coefficient of one eigenvalue class.

    `weights` uses the convention in which the origin amplitude reads
    (1/N^2) [ C(+1) + C(-1) (-1)^t + sum over classes w l^t ], i.e. the
    weight equals N^2 times the bare amplitude coefficient.
    """

    eigenvalue: complex
    weights: np.ndarray
    multiplicity: int
    representative: tuple[int, int] | None = None
    k: int | None = None
    members: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class OriginExpansion:
    """
    Eigenvalue-grouped coefficient table of the origin wavefunction for an
    origin-localized initial state.

    `c_plus` and `c_minus` aggregate the +1 and -1 contributions per
    chirality; `classes` itemizes every class including those aggregated
    into `c_plus`/`c_minus`.  For the diffusion coin the classes follow
    the momentum orbits (labeled by representative and k): first the
    clusters of block (0, 0), then the axis, diagonal and generic orbits,
    each group by representative and each orbit by k = 1..4.  For other
    coins they are numeric eigenvalue clusters in the order of
    `cluster_labels`.
    """

    coin_label: str
    size: int
    initial: np.ndarray
    c_plus: np.ndarray
    c_minus: np.ndarray
    classes: tuple[ClassCoefficients, ...]
    merged: tuple[tuple[complex, np.ndarray], ...]

    def amplitude(self, t: int) -> np.ndarray:
        """Origin amplitude 4-vector at time t from the expansion."""
        total = np.zeros(4, dtype=np.complex128)
        for value, amp in self.merged:
            total += amp * value ** int(t)
        return total


def _is_grover(coin: Coin) -> bool:
    return bool(np.abs(coin.entries - grover_coin().entries).max() < 1e-12)


def _orbit_labels(size: int) -> tuple[np.ndarray, np.ndarray]:
    """
    The grover degeneracy orbits: their representatives (orbits, 2) and the
    orbit label of every block (N, N), numbering the orbits origin (label
    0), axis, diagonal, generic, each group by representative.  With
    a = min(n, N - n), b = min(m, N - m) the representative of (n, m) is
    (max(a, b), 0) on the axes, (n, n) where a == b > 0 (so (n, N - n)
    joins (n, n)) and (min(a, b), max(a, b)) elsewhere.
    """
    n, m = np.indices((size, size))
    a, b = np.minimum(n, size - n), np.minimum(m, size - m)
    low, high = np.minimum(a, b), np.maximum(a, b)
    diagonal = (a == b) & (a > 0)
    group = np.select([high == 0, low == 0, diagonal], [0, 1, 2], 3)
    rep_n = np.where(diagonal, n, np.where(low == 0, high, low))
    rep_m = np.where(diagonal, n, np.where(low == 0, 0, high))
    keys, labels = np.unique((group * size + rep_n) * size + rep_m, return_inverse=True)
    return np.stack([keys // size % size, keys % size], axis=-1), labels.reshape(size, size)


def _grover_classes(
    values: np.ndarray, terms: np.ndarray, size: int
) -> list[ClassCoefficients]:
    values = values.reshape(size, size, 4)
    terms = terms.reshape(size, size, 4, 4)
    # (0, 0): fully degenerate block, kept as its own one-member class.
    centres, labels = cluster_labels(values[0, 0])
    totals = sum_by_label(labels, terms[0, 0])
    classes = [
        ClassCoefficients(value, total, count, (0, 0), 2 if count == 1 else None, ((0, 0),))
        for value, total, count in zip(centres.tolist(), totals, np.bincount(labels).tolist())
    ]
    # Other orbits: class k holds the k-th closed-form eigenvalue of the representative.
    representatives, orbits = _orbit_labels(size)
    expected = grover_eigenvalues(representatives[:, 0], representatives[:, 1], size)
    match = np.abs(expected[orbits][..., :, None] - values[..., None, :]) <= DEGENERACY_TOL
    lacking = np.argwhere(~match.any(axis=-1))
    if lacking.size:
        n, m, k = lacking[0]
        value = expected[orbits[n, m], k]
        raise SpectralError(f"block ({n}, {m}) lacks expected eigenvalue {value:.6f}")
    weights = np.einsum("...kj,...jc->...kc", match, terms).reshape(-1, 4, 4)
    totals = sum_by_label(orbits.ravel()[1:], weights[1:])
    blocks = np.stack(np.divmod(np.argsort(orbits, axis=None, kind="stable"), size), axis=-1)
    members = np.split(blocks, np.cumsum(np.bincount(orbits.ravel()))[:-1])
    for orbit in range(1, len(members)):
        rep = tuple(representatives[orbit].tolist())
        pairs = tuple(map(tuple, members[orbit].tolist()))
        for k, (value, total) in enumerate(zip(expected[orbit].tolist(), totals[orbit]), 1):
            classes.append(ClassCoefficients(value, total, len(pairs), rep, k, pairs))
    return classes


def origin_coefficients(
    coin: Coin, initial: InitialSpec, size: int
) -> OriginExpansion:
    """
    Coefficient table of the origin wavefunction expansion.

    The reconstruction identity, exact for all t >= 0:

        amplitude(t) = (1/N^2) [ c_plus + c_minus (-1)^t
                                 + sum over other classes w l^t ]

    For the diffusion coin, classes carry their momentum-orbit labels
    (representative pair and eigenvalue index); the aggregated +-1 rows
    reproduce the known closed-form values.
    """
    weights = initial.weights
    values, terms = _origin_terms(coin, weights, size)
    centres, labels = cluster_labels(values)
    sums = sum_by_label(labels, terms)
    c_plus, c_minus = (
        sums[np.abs(centres - target) <= DEGENERACY_TOL].sum(axis=0)
        for target in (1.0, -1.0)
    )
    if _is_grover(coin):
        classes = _grover_classes(values, terms, size)
    else:
        counts = np.bincount(labels).tolist()
        classes = [
            ClassCoefficients(value, total, count)
            for value, total, count in zip(centres.tolist(), sums, counts)
        ]
    return OriginExpansion(
        coin_label=coin.label,
        size=size,
        initial=weights,
        c_plus=c_plus,
        c_minus=c_minus,
        classes=tuple(classes),
        merged=tuple(zip(centres.tolist(), sums / size ** 2)),
    )
