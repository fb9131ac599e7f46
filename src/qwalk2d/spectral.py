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

Numeric eigensystems
--------------------
Blocks are diagonalized by a Hermitian solver (`_unitary_eigh`).  For a
unitary block H and a unit pole z that is not an eigenvalue, the Cayley
transform K = i (z + H)(z - H)^-1 is Hermitian, with the eigenvectors of
H: an eigenvalue l of H becomes cot((arg z - arg l) / 2).  The pole is
the one of eight, e^(i (0.3 + k pi/4)), where |det(z - H)| is largest.
Each eigenvalue lies within pi/8 of at most one of them, so at least four
lie pi/8 or more from every eigenvalue: the chosen |det(z - H)| is at
least (2 sin(pi/16))^4 ~ 0.023, and no eigenvalue is nearer the pole than
0.023 / 2^3 ~ 2.9e-3.  The map l -> cot(...) is one to one off the pole,
so a repeated eigenvalue of H is a repeated eigenvalue of K, and eigh's
columns span its eigenspace orthonormally: no QR pass is needed.

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

import itertools
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .coins import Coin
from .evolve import check_norm
from .state import InitialSpec, WalkState, _check_size, _json_frame, _table_rows, _write_parts

__all__ = [
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
#: Norm^2 drift per step that `evolve_spectral` allows for rounding.  A built
#: block's norm is 1 + O(eps), and H^t compounds that t times: from pure R
#: and from random states the drift stays below 1.6 eps per step (grover,
#: a1, a2, a4:p and Haar coins at N = 3..101, t = 1e6..1e15), so 16 eps
#: leaves a tenfold margin.
POWER_ROUNDING = 16 * np.finfo(np.float64).eps
#: Momentum blocks `_eigensystems` diagonalizes and checks together, with about
#: 3 KiB of temporaries per block.  512 ran as fast as 1024 and faster than 256;
#: 1024 raised the exact routes' peak at N = 41 by 36% (Haar coin, 1700 N^2 bytes).
EIGH_CHUNK = 512
#: The candidate poles e^(i (0.3 + k pi/4)), k = 0..7, of `_unitary_eigh`, as a column.
_POLES = np.exp(1j * (0.3 + np.pi / 4 * np.arange(8)))[:, None]


class SpectralError(RuntimeError):
    """Numeric failure inside the spectral machinery."""


def momentum_phases(n, m, size: int) -> np.ndarray:
    """
    Diagonal phase factors (w^-n, w^n, w^-m, w^m) of block (n, m); momentum
    arrays broadcast, giving shape (..., 4).  Momenta are taken mod N and
    every phase is read from one table: w^k = exp(2 pi i k / N) for
    k = 0..N/2, w^(N-k) = conj(w^k) and w^-k = conj(w^k).  Each entry is
    unimodular to rounding, and the table is exactly conjugate-symmetric,
    so for a real coin block (-n, -m) is the conjugate of block (n, m) bit
    for bit (up to the sign of a zero).
    """
    half = np.exp(2j * np.pi * np.arange(size // 2 + 1) / size)
    up = np.concatenate([half, half[(size - 1) // 2 : 0 : -1].conj()])
    down = up.conj()
    n, m = np.broadcast_arrays(np.mod(n, size), np.mod(m, size))
    return np.stack([down[n], up[n], down[m], up[m]], axis=-1)


def block_matrix(coin: Coin, n, m, size: int) -> np.ndarray:
    """The 4x4 block H(n, m) = diag(phases) @ coin, stacked over broadcast momenta."""
    return momentum_phases(n, m, size)[..., :, None] * coin.entries


#: The eight lattice maps g of the momentum torus as (swap, s_n, s_m):
#: g(n, m) = (s_n x, s_m y) with (x, y) = (m, n) if swap else (n, m).  The
#: identity comes first and -1, (n, m) -> (-n, -m), fourth.
_LATTICE_MAPS = [(swap, sn, sm) for swap in (0, 1) for sn in (1, -1) for sm in (1, -1)]
_MINUS_ONE = 3
#: Row g is the inverse of the permutation pi_g with momentum_phases(g(n, m))
#: = momentum_phases(n, m)[pi_g].  The tables here are written out or built
#: from Python lists: computed by numpy's argsort and meshgrid at import,
#: they raised the peak RSS of every run by 0.5 MiB.
_MAP_INVERSES = np.array([[0, 1, 2, 3], [0, 1, 3, 2], [1, 0, 2, 3], [1, 0, 3, 2],
                          [2, 3, 0, 1], [3, 2, 0, 1], [2, 3, 1, 0], [3, 2, 1, 0]])
#: Row g holds the flat indices that read P_g^T A P_g off a coin's raveled entries A.
_MAP_ENTRIES = np.array([[4 * i + j for i in row for j in row] for row in _MAP_INVERSES.tolist()])
#: The 64 phase vectors phi in {1, i, -1, -i}^4 with phi_0 = 1, and their
#: raveled outer products phi_i conj(phi_j).
_UNIT_PHASES = np.array([(1, *phi) for phi in itertools.product((1, 1j, -1, -1j), repeat=3)])
_UNIT_OUTERS = np.array(
    [[a * b.conjugate() for a in phi for b in phi] for phi in _UNIT_PHASES.tolist()]
)


def _coin_symmetries(coin: Coin) -> list[tuple[int, np.ndarray, bool]]:
    """
    The coin's symmetry group on the momentum grid, as elements
    (g, phi, conjugates): an index into `_LATTICE_MAPS`, a phase vector and
    whether the element conjugates.  The identity comes first.

    A lattice map g is an element when P_g diag(phi) A diag(phi)^-1 P_g^T
    equals the coin A exactly for some phi in {1, i, -1, -i}^4, with
    (P_g x)_i = x[pi_g(i)]; then H(g k) = S H(k) S^-1 for S = P_g diag(phi),
    bit for bit, because multiplying by those units is exact.  A real coin
    also has, for each such g, the conjugating element k -> -g k, under
    which H(-g k) = conj(S H(k) S^-1) (the phase table is exactly
    conjugate-symmetric); they are left out when -1 is a map, because they
    then join no new blocks.
    """
    entries = coin.entries.ravel()
    holds = ~(_UNIT_OUTERS[:, None] * entries != entries[_MAP_ENTRIES]).any(axis=-1)
    maps = np.flatnonzero(holds.any(axis=0)).tolist()
    phases = _UNIT_PHASES[holds[:, maps].argmax(axis=0)]
    elements = [(g, phi, False) for g, phi in zip(maps, phases)]
    if coin.is_real and _MINUS_ONE not in maps:
        elements += [(g, phi, True) for g, phi, _ in elements]
    return elements


def _orbits(elements, size: int) -> tuple[np.ndarray, np.ndarray]:
    """
    For every block, by flat index n N + m: the flat index of its orbit's
    representative under the group `elements`, the orbit's smallest, and
    the index of the first element that takes the block there.
    """
    n, m = np.divmod(np.arange(size * size), size)
    rep = np.arange(size * size)
    via = np.zeros(size * size, dtype=np.intp)
    for e, (g, _, conjugates) in enumerate(elements[1:], 1):
        swap, sn, sm = _LATTICE_MAPS[g]
        x, y = (m, n) if swap else (n, m)
        sign = -1 if conjugates else 1
        image = (sign * sn * x % size) * size + sign * sm * y % size
        smaller = image < rep
        rep[smaller], via[smaller] = image[smaller], e
    return rep, via


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
    runs = np.concatenate([[0], np.cumsum(np.abs(np.diff(values[order])) > DEGENERACY_TOL)])
    if runs[-1] > 0 and abs(values[order[-1]] - values[order[0]]) <= DEGENERACY_TOL:
        runs[runs == runs[-1]] = 0
    labels = np.empty_like(runs)
    labels[order] = runs
    means = sum_by_label(labels, values)
    means /= np.bincount(labels)
    rank = np.lexsort((means.imag, np.round(means.real / DEGENERACY_TOL)))
    relabel = np.empty_like(rank)
    relabel[rank] = np.arange(rank.size)
    return means[rank], relabel[labels]


def sum_by_label(labels: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Sum the rows sharing each label: entry k is the sum of rows[labels == k], each real
    column by one `np.bincount`, which adds in row order as `np.add.at` does."""
    rows = np.asarray(rows)
    sums = np.empty((labels.max() + 1,) + rows.shape[1:], dtype=rows.dtype)
    parts = [(sums.real, rows.real)]
    if np.iscomplexobj(rows):
        parts.append((sums.imag, rows.imag))
    for out, part in parts:
        for column in np.ndindex(rows.shape[1:]):
            column = (slice(None), *column)
            out[column] = np.bincount(labels, part[column], minlength=len(sums))
    return sums


def _unitary_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """
    Eigenvalues (B, 4) and orthonormal eigenvector columns (B, 4, 4) of a
    (B, 4, 4) stack of unitary blocks, through a Hermitian solver, worked
    batch-last.

    Per block, p(z) = det(z - H) comes from the traces of H, H^2, H^3 and
    H^4 by Newton's identities, and z is the pole of `_POLES` where |p(z)|
    is largest (see the module docstring for its bound).  By
    Cayley-Hamilton (z - H)^-1 = q(z, H) / p(z) with q cubic in H, so the
    Cayley transform K = i (z + H)(z - H)^-1 = 2 i z q(z, H) / p(z) - i
    needs no solve.  Its Hermitian part, M + M^H with M = i z q(z, H) / p(z),
    goes to eigh, and the eigenvalues are the Rayleigh quotients
    diag(V^H H V).
    """
    powers = np.empty((3, 4, 4, len(h)), dtype=np.complex128)  # H, H^2, H^3
    powers[0] = h.transpose(1, 2, 0)
    np.einsum("ijb,jkb->ikb", powers[0], powers[0], out=powers[1])
    np.einsum("ijb,jkb->ikb", powers[1], powers[0], out=powers[2])
    t1, t2, t3 = np.einsum("piib->pb", powers)
    t4 = np.einsum("ijb,jib->b", powers[1], powers[1])
    # p(z) = det(z - H) = z^4 - t1 z^3 + e2 z^2 - e3 z + e4, by Newton's identities
    e2 = (t1 * t1 - t2) / 2
    e3 = (e2 * t1 - t1 * t2 + t3) / 3
    e4 = (e3 * t1 - e2 * t2 + t1 * t3 - t4) / 4
    p = (((_POLES - t1) * _POLES + e2) * _POLES - e3) * _POLES + e4
    z = _POLES[np.argmax(np.abs(p), axis=0), 0]
    # q(z, H) = p(z) (z - H)^-1 = H^3 + a1 H^2 + a2 H + a3, by Horner's scheme
    a1 = z - t1
    a2 = z * a1 + e2
    a3 = z * a2 - e3
    scale = 1j * z / (z * a3 + e4)
    cayley = np.einsum("pijb,pb->ijb", powers, np.stack([scale * a2, scale * a1, scale]))
    diagonal = np.arange(4)
    cayley[diagonal, diagonal] += scale * a3
    cayley += cayley.conj().transpose(1, 0, 2)
    vectors = np.linalg.eigh(cayley.transpose(2, 0, 1))[1]
    return np.einsum("bij,bik,bkj->bj", vectors.conj(), h, vectors), vectors


def _eigensystems(coin: Coin, index: np.ndarray, size: int):
    """
    Diagonalize the blocks with flat indices `index` (block (n, m) at
    n N + m) with `_unitary_eigh`, EIGH_CHUNK blocks at a time: the orbit
    representatives of `_orbit_spectrum` (every block for a coin with no
    symmetry), one block for `build_block`.

    Yields each chunk once checked, as (blocks, values, vectors): its flat
    indices, the eigenvalues (B, 4), sorted within each block like the
    centres of `cluster_labels`, and the paired unit eigenvector columns
    (B, 4, 4).  Where an eigenvalue repeats within a block, its copies are
    replaced by their mean; its columns are already orthonormal, so every
    eigenvector matrix is unitary.

    Raises
    ------
    SpectralError
        If the eigensolver fails on a chunk, or the largest eigenpair
        residual or ||V^H V - I|| of a block exceeds 1e-10; the message
        names the block, or the first and last of the chunk.
    """
    for start in range(0, len(index), EIGH_CHUNK):
        blocks = index[start : start + EIGH_CHUNK]
        h = block_matrix(coin, *np.divmod(blocks, size), size)
        try:
            found, columns = _unitary_eigh(h)
        except np.linalg.LinAlgError as exc:
            raise SpectralError(
                f"eigendecomposition failed for the blocks {divmod(int(blocks[0]), size)} "
                f"to {divmod(int(blocks[-1]), size)}: {exc}"
            )
        close = np.abs(found[:, :, None] - found[:, None, :]) <= DEGENERACY_TOL
        for b in np.flatnonzero(close.sum(axis=(-2, -1)) > 4):
            centres, labels = cluster_labels(found[b])
            found[b] = centres[labels]
        # each block in the order of the centres of `cluster_labels`, its columns alike
        order = np.lexsort((found.imag, np.round(found.real / DEGENERACY_TOL)), axis=-1)
        found = np.take_along_axis(found, order, axis=-1)
        columns = np.take_along_axis(columns, order[:, None, :], axis=-1)
        # batch-last (4, 4, B) copies: their einsum takes under half a stacked matmul's time
        h, v = (np.ascontiguousarray(a.transpose(1, 2, 0)) for a in (h, columns))
        adjoint = np.ascontiguousarray(columns.conj().transpose(2, 1, 0))
        checks = (
            ("eigenpair residual", np.einsum("ijb,jkb->ikb", h, v) - v * found.T),
            ("eigenvector unitarity error",
             np.einsum("ijb,jkb->ikb", adjoint, v) - np.eye(4)[..., None]),
        )
        for what, error in checks:
            error = np.abs(error).max(axis=(0, 1))
            worst = np.argmax(error)
            if not error[worst] <= RESIDUAL_TOL:
                raise SpectralError(
                    f"{what} {error[worst]:.3e} in block {divmod(int(blocks[worst]), size)} "
                    f"exceeds {RESIDUAL_TOL:.0e}"
                )
        yield blocks, found, columns


def _orbit_spectrum(coin: Coin, size: int, weights: np.ndarray | None = None):
    """
    The clustered spectrum of all N^2 blocks, (labels, centres,
    multiplicities, sums), from one block per orbit of the coin's symmetry
    group: (N+1)(N+3)/8 for grover, ((N+1)/2)^2 for a1, a2 and a4:p,
    (N^2+1)/2 for a real coin with no lattice symmetry, N^2 for a complex one.

    Each representative of `_orbits` gives a row of its eigenvalues for the
    members that unitary elements (g, phi) of `_coin_symmetries` reach, and
    a conjugate row where conjugating elements reach members.  Members have
    their row's values bit for bit, so the rows are clustered once, each
    counted by its members.  `sums` (K, 4) add every member's projections
    v (v^H weights), V(k) = diag(phi)^-1 P_g^T V(rep) (of conj(V(rep)) for a
    conjugating element): exact, so the checks of `_eigensystems` cover them.
    """
    elements = _coin_symmetries(coin)
    maps, phases, conjugating = map(np.array, zip(*elements))
    turns = np.where(conjugating[:, None], phases, phases.conj())[..., None]  # phi^-1 in the end
    unitary = len(elements) - conjugating.sum()  # the unitary elements come first
    rep, via = _orbits(elements, _check_size(size))
    reps = np.flatnonzero(via == 0)
    # reached[r, e]: element e takes a member to representative r (at most one member)
    reached = np.zeros((len(reps), len(elements)), dtype=bool)
    reached[np.searchsorted(reps, rep), via] = True
    # a row per representative, then one per representative with conjugate members
    mirror = np.flatnonzero(reached[:, unitary:].any(axis=1))
    counts = np.concatenate([reached[:, :unitary].sum(1), reached[mirror, unitary:].sum(1)])
    values = np.empty((len(counts), 4), dtype=np.complex128)
    terms = None if weights is None else np.empty((len(counts), 4, 4), dtype=np.complex128)
    for blocks, found, columns in _eigensystems(coin, reps, size):
        start = np.searchsorted(reps, blocks[0])  # the chunk's representatives are rows
        chunk = slice(start, start + len(blocks))
        first, last = np.searchsorted(mirror, (chunk.start, chunk.stop))
        inner, outer = mirror[first:last] - start, slice(len(reps) + first, len(reps) + last)
        values[chunk], values[outer] = found, found[inner].conj()
        if terms is None:
            continue
        # every element's member vectors at once, (B, E, 4, 4), then their projections:
        # zero where the element reaches no member
        v = columns[:, _MAP_INVERSES[maps]]
        v *= turns
        np.conjugate(v[:, unitary:], out=v[:, unitary:])
        v *= ((v.conj().swapaxes(-1, -2) @ weights) * reached[chunk, :, None])[..., None, :]
        terms[chunk] = v[:, :unitary].sum(axis=1).swapaxes(-1, -2)
        terms[outer] = v[inner, unitary:].sum(axis=1).swapaxes(-1, -2)
    del rep, via, reps, reached, mirror  # only the rows go on to the clustering
    centres, labels = cluster_labels(values.ravel())
    multiplicities = np.bincount(labels, np.repeat(counts, 4)).astype(np.intp)
    sums = None if terms is None else sum_by_label(labels, terms.reshape(-1, 4))
    return labels.reshape(-1, 4), centres, multiplicities, sums


def build_block(coin: Coin, n: int, m: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """
    Diagonalize block (n, m) numerically: its eigenvalues (4,), ordered as
    in `_eigensystems`, and the paired unit eigenvector columns (4, 4),
    orthonormal within each degenerate eigenvalue.

    Raises
    ------
    SpectralError
        If the eigensolver fails, or an eigenpair residual or the deviation
        of the eigenvectors from orthonormality exceeds 1e-10; the message
        carries the block coordinates.
    """
    if not (0 <= n < size and 0 <= m < size):
        raise ValueError(f"momenta must lie in 0..{size - 1}, got ({n}, {m})")
    _, values, vectors = next(_eigensystems(coin, np.array([n * size + m]), size))
    return values[0], vectors[0]


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

#: A distinct eigenvalue of the full walk operator with its multiplicity.
EigenvalueCluster = namedtuple("EigenvalueCluster", ["value", "multiplicity"])


@dataclass(frozen=True)
class SpectralDecomposition:
    """
    The clustered spectrum of all N^2 momentum blocks of a coin.

    `labels` (rows, 4) index the cluster of each value of the orbit rows of
    `_orbit_spectrum` in `centres` (K,), the cluster means in the order of
    `cluster_labels`; `multiplicities` (K,) count every block's copies.
    """

    coin: Coin
    size: int
    labels: np.ndarray = field(repr=False)
    centres: np.ndarray = field(repr=False)
    multiplicities: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, coin: Coin, size: int) -> "SpectralDecomposition":
        return cls(coin, size, *_orbit_spectrum(coin, size)[:3])

    @property
    def clusters(self) -> tuple[EigenvalueCluster, ...]:
        """The clusters as objects, in the order of `centres`, built on each access."""
        return tuple(map(EigenvalueCluster, self.centres.tolist(), self.multiplicities.tolist()))

    def common_eigenvalues(self) -> tuple[complex, ...]:
        """Eigenvalues present in every momentum block, so in every row."""
        labels = np.sort(self.labels, axis=-1)
        # count each cluster once per row: at its first place in the row's sorted labels
        first = np.diff(labels, axis=-1, prepend=-1) != 0
        present = np.bincount(labels[first], minlength=len(self.centres))
        return tuple(self.centres[present == len(labels)].tolist())

    def max_multiplicity(self) -> int:
        return int(self.multiplicities.max())

    def _rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Multiplicities and real and imaginary parts, by falling multiplicity, ties in order."""
        order = np.argsort(-self.multiplicities, kind="stable")
        return self.multiplicities[order], self.centres.real[order], self.centres.imag[order]

    def to_payload(self) -> dict:
        rows = zip(*(column.tolist() for column in self._rows()))
        return {"coin": self.coin.label, "N": self.size, "clusters": [
            {"value": [re, im], "multiplicity": count} for count, re, im in rows]}

    def to_json(self) -> str:
        """`json.dumps(self.to_payload(), indent=2, sort_keys=True)` plus a newline."""
        return "".join(self._json_text())

    def write_json(self, path) -> None:
        """Write `to_json`'s text to `path`, a file name or an open text stream, a chunk of
        rows at a time, never joining it."""
        _write_parts(path, self._json_text())

    def _json_text(self):
        counts, real, imag = self._rows()
        # the counts fall: one name per run of equal counts (np.unique's code costs RSS)
        new = np.diff(counts, prepend=-1) != 0
        head, tail = _json_frame({"coin": self.coin.label, "N": self.size}, "clusters")
        rows = _table_rows(
            ['    {\n      "multiplicity": ', ',\n      "value": [\n        ',
             ",\n        ", "\n      ]\n    }"],
            [(np.array(list(map(str, counts[new].tolist())), "S"), np.cumsum(new) - 1), real, imag],
            shortest=True, join=",\n")
        return itertools.chain([head], rows, [tail])


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

    Raises ConsistencyError when the final norm drifts from the input's
    by more than `evolve.check_norm` allows with POWER_ROUNDING per step,
    as it does once rounding blows up the powers (grover at N=9 and
    t = 1e18 ends with norm^2 ~ 1e59).
    """
    t = int(t)
    if t < 0:
        raise ValueError(f"steps must be nonnegative, got {t}")
    size = initial.n
    flat = np.fft.fft2(initial.amplitudes, axes=(0, 1)).reshape(-1, 4)
    _propagate(flat, coin, t, size)
    amplitudes = np.fft.ifft2(flat.reshape(size, size, 4), axes=(0, 1))
    check_norm(amplitudes, initial.norm_sq(), coin, t, POWER_ROUNDING)
    return WalkState(amplitudes, initial.t + t, validate=False)


# ---------------------------------------------------------------------------
# Origin-amplitude coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassCoefficients:
    """
    Aggregated origin-expansion coefficient of one distinct eigenvalue.

    `weights` uses the convention in which the origin amplitude reads
    (1/N^2) [ C(+1) + C(-1) (-1)^t + sum over classes w l^t ], i.e. the
    weight equals N^2 times the bare amplitude coefficient.
    """

    eigenvalue: complex
    weights: np.ndarray
    multiplicity: int


@dataclass(frozen=True)
class OriginExpansion:
    """
    Eigenvalue-grouped coefficient table of the origin wavefunction for an
    origin-localized initial state: `eigenvalues` (K,), in the order of
    `cluster_labels`, `weights` (K, 4) in the convention of
    `ClassCoefficients` and `multiplicities` (K,) hold one row per distinct
    eigenvalue, and `classes` the same rows as objects.  `c_plus` and
    `c_minus` aggregate the +1 and -1 contributions per chirality.
    """

    coin_label: str
    size: int
    initial: np.ndarray
    c_plus: np.ndarray
    c_minus: np.ndarray
    eigenvalues: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    multiplicities: np.ndarray = field(repr=False)

    @property
    def classes(self) -> tuple[ClassCoefficients, ...]:
        """The rows as objects, in the order of `eigenvalues`, built on each access."""
        return tuple(map(ClassCoefficients, self.eigenvalues.tolist(), self.weights,
                         self.multiplicities.tolist()))

    @property
    def merged(self) -> tuple[tuple[complex, np.ndarray], ...]:
        """The pairs (l, A_l) of `origin_eigenvalue_amplitudes`, built on each access."""
        return tuple(zip(self.eigenvalues.tolist(), self.weights / self.size ** 2))

    def amplitude(self, t: int) -> np.ndarray:
        """Origin amplitude 4-vector at time t from the expansion."""
        total = np.zeros(4, dtype=np.complex128)
        for value, amp in self.merged:
            total += amp * value ** int(t)
        return total


def origin_coefficients(coin: Coin, initial: InitialSpec, size: int) -> OriginExpansion:
    """
    Coefficient table of the origin wavefunction expansion.

    The reconstruction identity, exact for all t >= 0:

        amplitude(t) = (1/N^2) [ c_plus + c_minus (-1)^t
                                 + sum over other classes w l^t ]

    For the diffusion coin the aggregated +-1 rows reproduce the known
    closed-form values.
    """
    weights = initial.weights
    _, centres, multiplicities, sums = _orbit_spectrum(coin, size, weights)
    c_plus, c_minus = (
        sums[np.abs(centres - target) <= DEGENERACY_TOL].sum(axis=0)
        for target in (1.0, -1.0)
    )
    return OriginExpansion(
        coin_label=coin.label,
        size=size,
        initial=weights,
        c_plus=c_plus,
        c_minus=c_minus,
        eigenvalues=centres,
        weights=sums,
        multiplicities=multiplicities,
    )


def origin_eigenvalue_amplitudes(
    coin: Coin, initial: InitialSpec, size: int
) -> list[tuple[complex, np.ndarray]]:
    """
    Exact expansion of the origin amplitude over distinct eigenvalues, the
    list of `origin_coefficients(coin, initial, size).merged`.

    For an origin-localized initial state the amplitude of chirality i at
    the origin is exactly

        psi_i(t) = sum over distinct eigenvalues l of  A_l[i] * l^t,

    where A_l collects (1/N^2) times the eigenspace projections of the
    initial chirality vector over every block containing l.  The pairs
    (l, A_l) come in the order of `cluster_labels`.
    """
    return list(origin_coefficients(coin, initial, size).merged)
