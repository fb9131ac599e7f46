"""
Coin matrices for two-dimensional coined quantum walks.

Every coin is a 4x4 complex unitary acting on the chirality space
(R, L, U, D) = (0, 1, 2, 3).  Built-in coins:

- grover_coin(): the degree-4 diffusion coin, -1/2 on the diagonal and
  +1/2 everywhere else.
- a1_coin(), a2_coin(): two real reference coins whose walks spread out
  instead of localizing.
- symmetric_family(p): a one-parameter real symmetric family that
  reduces to the diffusion coin at p = 1/2 and localizes for every
  p in (0, 1).
- custom_coin(entries): any user-supplied matrix, accepted after a
  unitarity check.

Coins are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "CHIRALITIES",
    "Coin",
    "a1_coin",
    "a2_coin",
    "chirality_index",
    "coin_from_json",
    "custom_coin",
    "grover_coin",
    "symmetric_family",
    "unitarity_residual",
]

CHIRALITIES = ("R", "L", "U", "D")

#: Entrywise tolerance on |C†C - I| for the built-in constructions.
BUILTIN_UNITARITY_TOL = 1e-12
#: Looser tolerance for user-entered matrices (admits decimal input).
CUSTOM_UNITARITY_TOL = 1e-9


def chirality_index(chirality) -> int:
    """Map a chirality given as 'R'/'L'/'U'/'D' or 0..3 to its index."""
    if isinstance(chirality, str):
        try:
            return CHIRALITIES.index(chirality.upper())
        except ValueError:
            raise ValueError(
                f"unknown chirality {chirality!r}; expected one of {CHIRALITIES}"
            ) from None
    idx = int(chirality)
    if idx not in (0, 1, 2, 3):
        raise ValueError(f"chirality index out of range: {chirality!r}")
    return idx


def unitarity_residual(entries) -> float:
    """
    Return the max-norm of C†C - I for a 4x4 matrix.

    Parameters
    ----------
    entries: array_like
        4x4 complex matrix.

    Returns
    -------
    float
        max |(C†C - I)_jk|; zero for an exactly unitary matrix.
    """
    c = np.asarray(entries, dtype=np.complex128)
    if c.shape != (4, 4):
        raise ValueError(f"coin must be 4x4, got shape {c.shape}")
    return float(np.abs(c.conj().T @ c - np.eye(4)).max())


@dataclass(frozen=True)
class Coin:
    """
    A 4x4 unitary acting on the chirality space (R, L, U, D).

    Attributes
    ----------
    entries: NDArray[np.complex128]
        The matrix, stored read-only in double-precision complex even
        when real, so downstream code has a single dtype path.
    label: str
        Short identifier used in reports and file metadata.
    """

    entries: NDArray[np.complex128]
    label: str = "custom"

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=np.complex128)
        if not np.isfinite(entries).all():
            raise ValueError(f"coin {self.label!r} has a non-finite entry")
        residual = unitarity_residual(entries)
        if residual >= CUSTOM_UNITARITY_TOL:
            raise ValueError(
                f"coin {self.label!r} is not unitary: residual {residual:.3e} "
                f">= {CUSTOM_UNITARITY_TOL:.0e}"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def is_real(self) -> bool:
        return bool(np.abs(self.entries.imag).max() == 0.0)

    def __repr__(self) -> str:
        return f"Coin(label={self.label!r})"


def _builtin(entries, label: str) -> Coin:
    coin = Coin(np.asarray(entries), label)
    residual = unitarity_residual(coin.entries)
    if residual >= BUILTIN_UNITARITY_TOL:
        raise AssertionError(f"built-in coin {label} has residual {residual:.3e}")
    return coin


def grover_coin() -> Coin:
    """
    Return the degree-4 diffusion coin: -1/2 on the diagonal, +1/2 off it.

    The matrix is real symmetric and squares to the identity, so its
    eigenvalues are +1 (once) and -1 (three times).
    """
    return _builtin(0.5 * np.ones((4, 4)) - np.eye(4), "grover")


def a1_coin() -> Coin:
    """
    Return the first reference coin, entries in {0, +-1/sqrt(2)}.

    Its walk spreads ballistically with no weight left at the start site.
    """
    s = 1.0 / np.sqrt(2.0)
    entries = [
        [0.0, 0.0, -s, s],
        [0.0, 0.0, s, s],
        [s, -s, 0.0, 0.0],
        [s, s, 0.0, 0.0],
    ]
    return _builtin(entries, "a1")


def a2_coin() -> Coin:
    """
    Return the second reference coin, entries in {0, +-1/sqrt(3)}.
    """
    s = 1.0 / np.sqrt(3.0)
    entries = [
        [-s, 0.0, s, s],
        [0.0, -s, -s, s],
        [s, -s, s, 0.0],
        [s, s, 0.0, s],
    ]
    return _builtin(entries, "a2")


def symmetric_family(p: float) -> Coin:
    """
    Return the real symmetric coin with parameter p, q = 1 - p.

        [ -p        q        sqrt(pq)  sqrt(pq) ]
        [  q       -p        sqrt(pq)  sqrt(pq) ]
        [ sqrt(pq)  sqrt(pq) -q        p        ]
        [ sqrt(pq)  sqrt(pq)  p       -q        ]

    At p = 1/2 this is exactly the diffusion coin.  Every member keeps
    +1 and -1 in the spectrum of all momentum blocks, so the walk
    localizes for any p in (0, 1).

    Parameters
    ----------
    p: float
        Mixing parameter, strictly between 0 and 1.

    Raises
    ------
    ValueError
        If p lies outside the open interval (0, 1).
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"parameter p must lie in (0, 1), got {p}")
    q = 1.0 - p
    r = np.sqrt(p * q)
    entries = [
        [-p, q, r, r],
        [q, -p, r, r],
        [r, r, -q, p],
        [r, r, p, -q],
    ]
    return _builtin(entries, f"a4(p={p:g})")


def custom_coin(entries, label: str = "custom") -> Coin:
    """
    Build a coin from user-supplied entries after a unitarity check.

    Parameters
    ----------
    entries: array_like
        4x4 complex matrix with |C†C - I| below 1e-9 entrywise.
    label: str
        Identifier carried into reports.

    Raises
    ------
    ValueError
        If the matrix is not 4x4 or fails the unitarity check; the
        message reports the measured residual.
    """
    return Coin(np.asarray(entries, dtype=np.complex128), label)


def coin_from_json(path) -> Coin:
    """
    Load a custom coin from a JSON file.

    Expected format: a 4x4 row-major array whose entries are [re, im]
    pairs, e.g. ``[[[0.5, 0.0], ...], ...]``.

    Parameters
    ----------
    path: str or pathlib.Path
        File to read.  The coin label is the file stem.

    Raises
    ------
    ValueError
        On malformed content or a non-unitary matrix.
    """
    path = pathlib.Path(path)
    data = json.loads(path.read_text())
    expected = f"coin file {path} must hold a 4x4 array of [re, im] pairs"
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:  # an object, a string or a ragged list
        raise ValueError(f"{expected}: {exc}") from None
    if arr.shape != (4, 4, 2):
        raise ValueError(f"{expected}, got shape {arr.shape}")
    entries = arr[..., 0] + 1j * arr[..., 1]
    return custom_coin(entries, label=path.stem)
