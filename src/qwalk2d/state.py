"""
Wavefunction of the walker on the periodic N x N lattice.

Sites carry centered coordinates x, y in {-(N-1)/2, ..., (N-1)/2} with N
odd.  Internally amplitudes live in a complex array indexed by
(x mod N, y mod N, chirality), which puts the origin at index (0, 0) and
turns periodic shifts into plain array rolls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .coins import CHIRALITIES, chirality_index

__all__ = [
    "ConsistencyError",
    "InitialSpec",
    "WalkState",
    "coords",
    "origin_superposition",
    "pure_state",
    "write_grid_csv",
    "write_grid_json",
]

#: Allowed drift of the total probability from 1 (construction and long runs).
NORM_TOL = 1e-10
#: Tolerance on the normalization of an initial chirality vector.
SPEC_NORM_TOL = 1e-12


class ConsistencyError(RuntimeError):
    """An internal cross-check between independent computations failed."""


def _check_size(n: int) -> int:
    n = int(n)
    if n < 3 or n % 2 == 0:
        raise ValueError(f"lattice size must be an odd integer >= 3, got {n}")
    return n


def coords(n: int) -> np.ndarray:
    """Centered coordinate values -(n-1)/2 ... (n-1)/2 in order."""
    half = (_check_size(n) - 1) // 2
    return np.arange(-half, half + 1)


@dataclass(frozen=True)
class InitialSpec:
    """
    Chirality weights (alpha, beta, gamma, zeta) of an origin-localized
    initial state, in the order (R, L, U, D).

    The weights must be normalized: |alpha|^2 + |beta|^2 + |gamma|^2 +
    |zeta|^2 = 1 within 1e-12.
    """

    alpha: complex = 0.0
    beta: complex = 0.0
    gamma: complex = 0.0
    zeta: complex = 0.0

    def __post_init__(self) -> None:
        total = sum(abs(w) ** 2 for w in self.weights.tolist())
        if not abs(total - 1.0) <= SPEC_NORM_TOL:
            raise ValueError(
                f"initial weights must satisfy sum |w|^2 = 1, got {total!r}"
            )

    @property
    def weights(self) -> np.ndarray:
        """The four weights as a complex vector in chirality order."""
        return np.array([self.alpha, self.beta, self.gamma, self.zeta], dtype=np.complex128)

    @classmethod
    def pure(cls, chirality) -> "InitialSpec":
        """Unit weight on a single chirality at the origin."""
        w = [0.0, 0.0, 0.0, 0.0]
        w[chirality_index(chirality)] = 1.0
        return cls(*w)

    def describe(self) -> str:
        """Short deterministic label, e.g. 'R' for a pure state."""
        w = self.weights
        for idx, name in enumerate(CHIRALITIES):
            if abs(w[idx] - 1.0) < 1e-15 and abs(np.delete(w, idx)).max() < 1e-15:
                return name
        parts = []
        for value in w:
            if value.imag == 0.0:
                parts.append(f"{value.real:g}")
            else:
                parts.append(f"{value.real:g}{value.imag:+g}i")
        return "custom:" + ",".join(parts)


class WalkState:
    """
    Amplitudes of the total state at one instant, plus the step counter.

    Treat instances as values: evolution returns new states and never
    mutates an existing one, so states can be shared freely between
    threads.
    """

    __slots__ = ("amplitudes", "t")

    def __init__(self, amplitudes, t: int = 0, *, validate: bool = True):
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        if validate:
            if amplitudes.ndim != 3 or amplitudes.shape[2] != 4 or (
                amplitudes.shape[0] != amplitudes.shape[1]
            ):
                raise ValueError(
                    f"amplitudes must have shape (N, N, 4), got {amplitudes.shape}"
                )
            _check_size(amplitudes.shape[0])
            total = float((np.abs(amplitudes) ** 2).sum())
            if not abs(total - 1.0) <= NORM_TOL:
                raise ValueError(
                    f"state norm deviates from 1 by {abs(total - 1.0):.3e}"
                )
            if int(t) < 0:
                raise ValueError(f"time must be nonnegative, got {t}")
        self.amplitudes = amplitudes
        self.t = int(t)

    @property
    def n(self) -> int:
        """Lattice size N."""
        return self.amplitudes.shape[0]

    def norm_sq(self) -> float:
        return float((np.abs(self.amplitudes) ** 2).sum())

    def _site(self, x: int, y: int) -> tuple[int, int]:
        half = (self.n - 1) // 2
        if not (-half <= x <= half and -half <= y <= half):
            raise ValueError(
                f"site ({x}, {y}) outside the centered range [-{half}, {half}]"
            )
        return x % self.n, y % self.n

    def amplitude(self, x: int, y: int, chirality=None):
        """Amplitude(s) at a site: the 4-vector, or one chirality component."""
        ix, iy = self._site(x, y)
        if chirality is None:
            return self.amplitudes[ix, iy].copy()
        return complex(self.amplitudes[ix, iy, chirality_index(chirality)])

    def probability_at(self, x: int, y: int) -> float:
        """Total occupation probability of site (x, y), summed over chiralities."""
        ix, iy = self._site(x, y)
        return float((np.abs(self.amplitudes[ix, iy]) ** 2).sum())

    def probability_grid(self) -> np.ndarray:
        """
        Site probabilities as an (N, N) array in centered layout:
        entry [i, j] belongs to x = coords(N)[i], y = coords(N)[j].
        """
        half = (self.n - 1) // 2
        p = (np.abs(self.amplitudes) ** 2).sum(axis=2)
        return np.roll(p, (half, half), axis=(0, 1))

    def translated(self, dx: int, dy: int) -> "WalkState":
        """The same state shifted by (dx, dy) on the torus."""
        return WalkState(
            np.roll(self.amplitudes, (int(dx), int(dy)), axis=(0, 1)),
            self.t,
            validate=False,
        )

    def __repr__(self) -> str:
        return f"WalkState(n={self.n}, t={self.t})"


def pure_state(n: int, chirality, x: int = 0, y: int = 0) -> WalkState:
    """
    State fully concentrated on one chirality of one site.

    Parameters
    ----------
    n: int
        Odd lattice size >= 3.
    chirality: str or int
        'R', 'L', 'U', 'D' or 0..3.
    x, y: int
        Centered site coordinates; default origin.

    Raises
    ------
    ValueError
        For even/too-small n or a site outside the lattice.
    """
    n = _check_size(n)
    amplitudes = np.zeros((n, n, 4), dtype=np.complex128)
    state = WalkState(amplitudes, 0, validate=False)
    ix, iy = state._site(int(x), int(y))
    amplitudes[ix, iy, chirality_index(chirality)] = 1.0
    return WalkState(amplitudes, 0)


def origin_superposition(n: int, spec: InitialSpec) -> WalkState:
    """
    State with chirality weights `spec` at the origin and zero elsewhere.
    """
    n = _check_size(n)
    amplitudes = np.zeros((n, n, 4), dtype=np.complex128)
    amplitudes[0, 0, :] = spec.weights
    return WalkState(amplitudes, 0)


def _grid_values(state: WalkState) -> tuple:
    """x, y and p of every site, x-major in centered coordinates, as one flat tuple."""
    cs = coords(state.n)
    values = [None] * (3 * state.n ** 2)
    values[0::3] = np.repeat(cs, state.n).tolist()
    values[1::3] = np.tile(cs, state.n).tolist()
    values[2::3] = state.probability_grid().ravel().tolist()
    return tuple(values)


def _json_parts(payload: dict, key: str, row: str, count: int, values: tuple) -> tuple:
    """
    The text of `json.dumps(payload, indent=2, sort_keys=True) + "\n"` in
    three parts (head, rows, tail), where the top-level list payload[key]
    holds `count` > 0 items, each written by the `%` template `row` (at an
    indent of four spaces) from its share of the flat tuple `values`.
    """
    # json escapes newlines and quotes inside strings: only the placeholder's own line matches
    head, tail = json.dumps({**payload, key: 0}, indent=2, sort_keys=True).split(
        f'\n  "{key}": 0')
    return f'{head}\n  "{key}": [\n', ",\n".join([row] * count) % values, f"\n  ]{tail}\n"


def _write_parts(path, parts) -> None:
    """Write the strings `parts` to `path` in turn, never joining them."""
    with open(path, "w") as out:
        for part in parts:
            out.write(part)


def write_grid_csv(state: WalkState, path) -> None:
    """
    Write the probability grid as CSV: a header `x,y,p`, then one row per
    site in centered coordinates, x-major, p formatted `%.17g`; every line
    ends in a newline.
    """
    rows = ("%d,%d,%.17g\n" * state.n ** 2) % _grid_values(state)
    _write_parts(path, ("x,y,p\n", rows))


def write_grid_json(state: WalkState, path, *, coin: str = "", initial: str = "") -> None:
    """
    Write the probability grid as JSON with run metadata: the bytes of
    `json.dumps(payload, indent=2, sort_keys=True)` plus a newline, where
    `payload["rows"]` holds one [x, y, p] per site in CSV order and each p
    is written as its Python `repr` (what `json` writes for a finite float).
    """
    payload = {"coin": coin, "N": state.n, "t": state.t, "initial": initial,
               "columns": ["x", "y", "p"]}
    _write_parts(path, _json_parts(payload, "rows", "    [\n      %d,\n      %d,\n      %r\n    ]",
                                   state.n ** 2, _grid_values(state)))
