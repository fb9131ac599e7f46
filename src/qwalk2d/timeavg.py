"""
Time-averaged origin probabilities.

Instantaneous occupation probabilities of a coined walk oscillate
forever; their Cesaro averages over time converge and detect
localization.  Four routes to the same quantity are provided:

- `empirical_time_average`: a finite-horizon average along a simulated
  trajectory (any coin, any site), converging at rate O(1/T).
- `exact_time_average`: the exact T -> infinity limit at the origin,
  obtained from the eigenvalue expansion: cross terms between distinct
  eigenvalues average to zero, so only squared moduli of eigenvalue-
  grouped coefficients survive.
- `grover_closed_form`: the polynomial-in-1/N values for the diffusion
  coin started in the pure R state.
- `limit_time_average`: the infinite-lattice limit for an arbitrary
  origin-localized initial state.

Parity-restricted averages (even or odd times only) are supported
throughout.  In the exact route an eigenvalue pair (l, -l) interferes
within a parity class: averaging l^t conj(l')^t over even t survives iff
l' = +-l.  At even times t = 2s the amplitude is a sum over mu = l^2 of
(sum of A_l with l^2 = mu) mu^s, so the coefficients are summed over
clusters of l^2 before squaring, giving |A(l) + A(-l)|^2; odd times do the
same with A_l l in place of A_l, giving |A(l) - A(-l)|^2.
"""

from __future__ import annotations

import json
import math
import pathlib
from collections import namedtuple
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .coins import CHIRALITIES, Coin, chirality_index, grover_coin
from .evolve import check_norm, trajectory
from .spectral import SpectralDecomposition, cluster_labels, origin_coefficients, sum_by_label
from .state import ConsistencyError, InitialSpec, WalkState, _check_size, _table_rows

__all__ = [
    "AlphaExtrema",
    "ConsistencyError",
    "IntegralConstants",
    "LocalizationReport",
    "TimeAverageReport",
    "alpha_extrema",
    "closed_form_report",
    "empirical_time_average",
    "exact_time_average",
    "grover_closed_form",
    "integral_constants",
    "limit_report",
    "limit_time_average",
    "localization_predictor",
    "scan_alpha",
    "scan_csv",
    "write_report_json",
    "write_scan_csv",
]

PARITIES = ("all", "even", "odd")
#: Kept steps whose site amplitudes `empirical_time_average` buffers before
#: folding their probabilities into the running sums.
FOLD_ROWS = 256


@dataclass(frozen=True)
class TimeAverageReport:
    """
    Per-chirality time-averaged probabilities at one site.

    `size` is None for infinite-lattice limits; `samples` is the horizon
    T of an empirical average and None otherwise.  A closed-form report
    covers chirality R alone, with `total` None.
    """

    method: str
    parity: str
    coin: str
    initial: str
    size: int | None
    per_chirality: tuple[float, ...]
    total: float | None
    samples: int | None = None
    site: tuple[int, int] = (0, 0)

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "parity": self.parity,
            "coin": self.coin,
            "N": self.size,
            "initial": self.initial,
            "per_chirality": dict(zip(CHIRALITIES, self.per_chirality)),
            "total": self.total,
            "samples": self.samples,
            "site": list(self.site),
        }


def write_report_json(report: TimeAverageReport, path) -> None:
    pathlib.Path(path).write_text(
        json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    )


def _check_parity(parity: str) -> str:
    if parity not in PARITIES:
        raise ValueError(f"parity must be one of {PARITIES}, got {parity!r}")
    return parity


def _report(method, parity, coin_label, initial_label, size, values,
            samples=None, site=(0, 0)):
    values = np.asarray(values, dtype=float)
    if not (values.min() >= -1e-12 and values.max() <= 1.0 + 1e-9):
        raise ConsistencyError(
            f"per-chirality averages left [0, 1]: {values.tolist()}"
        )
    return TimeAverageReport(
        method=method,
        parity=parity,
        coin=coin_label,
        initial=initial_label,
        size=size,
        per_chirality=tuple(float(v) for v in values),
        total=float(values.sum()),
        samples=samples,
        site=(int(site[0]), int(site[1])),
    )


def empirical_time_average(
    initial: WalkState,
    coin: Coin,
    horizon: int,
    site: tuple[int, int] = (0, 0),
    parity: str = "all",
) -> TimeAverageReport:
    """
    Average the per-chirality probabilities at `site` over
    t = 0 ... horizon-1 along a simulated trajectory.

    Parity-restricted averages divide by the number of time points in
    the class (ceil(T/2) even, floor(T/2) odd); an empty class (odd
    times with T = 1) raises ValueError.  Raises ConsistencyError when
    the final norm drifts from the input's by more than `check_norm`
    allows.
    """
    horizon = int(horizon)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    _check_parity(parity)
    times = range(1 if parity == "odd" else 0, horizon, 1 if parity == "all" else 2)
    if not times:
        raise ValueError(f"no {parity} time below the horizon T = {horizon}")
    x, y = site
    ix, iy = initial._site(int(x), int(y))
    steps = islice(trajectory(initial, coin), times.start, horizon, times.step)
    buffer = np.empty((min(len(times), FOLD_ROWS), 4), dtype=np.complex128)
    total = np.zeros(4)
    for start in range(0, len(times), len(buffer)):
        rows = buffer[: len(times) - start]
        for row, amplitudes in zip(rows, steps):
            row[...] = amplitudes[ix, iy]
        # cumsum adds row by row, so with the running total in its first row
        # the sums keep the bits of adding one step at a time
        probabilities = np.abs(rows) ** 2
        probabilities[0] += total
        total = np.cumsum(probabilities, axis=0)[-1]
    check_norm(amplitudes, initial.norm_sq(), coin, horizon - 1)
    values = total / len(times)
    return _report(
        "empirical", parity, coin.label, "state", initial.n,
        values, samples=horizon, site=(x, y),
    )


def exact_time_average(
    coin: Coin,
    initial: InitialSpec,
    size: int,
    parity: str = "all",
) -> TimeAverageReport:
    """
    Exact infinite-horizon time average at the origin from the eigenvalue
    expansion of the origin amplitude that `origin_coefficients` builds.

    Works for any unitary coin; eigenvalue grouping across momentum
    blocks is numeric (tolerance 1e-9).  The coefficient algebra assumes
    an origin-localized initial state, so the origin is the only site.
    """
    _check_parity(parity)
    expansion = origin_coefficients(coin, initial, size)
    values, amps = expansion.eigenvalues, expansion.weights / size ** 2
    if parity != "all":
        if parity == "odd":
            amps = amps * values[:, None]
        amps = sum_by_label(cluster_labels(values ** 2)[1], amps)
    per = (np.abs(amps) ** 2).sum(axis=0)
    return _report("exact", parity, coin.label, initial.describe(), size, per)


def grover_closed_form(size: int, parity: str = "all") -> float:
    """
    Closed-form time-averaged probability of finding the diffusion-coin
    walker back in chirality R at the origin, starting from the pure R
    state on an odd lattice of size N:

        all:  1/8 + 5/(4 N^2) - 2/N^3 + 5/(4 N^4)
        even: 1/4 + 3/(2 N^2) - 2/N^3 + 5/(4 N^4)
        odd:        1/N^2     - 2/N^3 + 5/(4 N^4)

    The three satisfy all = (even + odd)/2 identically, and the all-time
    value decreases monotonically to 1/8 as N grows.
    """
    size = _check_size(size)
    _check_parity(parity)
    n2 = size ** 2
    n3 = size ** 3
    n4 = size ** 4
    tail = -2.0 / n3 + 1.25 / n4
    if parity == "all":
        return 0.125 + 1.25 / n2 + tail
    if parity == "even":
        return 0.25 + 1.5 / n2 + tail
    return 1.0 / n2 + tail


# Infinite-lattice limit: the origin amplitude keeps only the +-1
# eigenvalue aggregates, whose lattice sums converge to explicit
# pi-expressions.  The resulting chirality-R value is
# | a/(2 sqrt 2) - sqrt(1/8 + 2/pi^2 - 1/pi) b
#   + sqrt(1/8 + 1/(2 pi^2) - 1/(2 pi)) (g + z) |^2,
# with L, U, D obtained by permuting the weights.
_SELF_COEFF = 1.0 / (2.0 * math.sqrt(2.0))
_OPPOSITE_COEFF = -math.sqrt(0.125 + 2.0 / math.pi ** 2 - 1.0 / math.pi)
_TRANSVERSE_COEFF = math.sqrt(0.125 + 0.5 / math.pi ** 2 - 0.5 / math.pi)

# Row c orders the weights as (self, opposite, transverse, transverse) for chirality c.
_LIMIT_PERMUTATIONS = np.array([
    (0, 1, 2, 3),  # R
    (1, 0, 2, 3),  # L
    (2, 3, 0, 1),  # U
    (3, 2, 0, 1),  # D
])


def _limit_amplitudes(weights) -> np.ndarray:
    """Infinite-lattice origin amplitudes, per chirality, of weights of shape (..., 4)."""
    w = np.asarray(weights)[..., _LIMIT_PERMUTATIONS]
    return (_SELF_COEFF * w[..., 0] + _OPPOSITE_COEFF * w[..., 1]
            + _TRANSVERSE_COEFF * (w[..., 2] + w[..., 3]))


def limit_time_average(initial: InitialSpec, chirality) -> float:
    """
    Infinite-lattice time-averaged probability of one chirality at the
    origin for an origin-localized initial state.
    """
    return float(abs(_limit_amplitudes(initial.weights)[chirality_index(chirality)]) ** 2)


def _is_grover(coin: Coin) -> bool:
    return bool(np.abs(coin.entries - grover_coin().entries).max() < 1e-12)


def limit_report(coin: Coin, initial: InitialSpec) -> TimeAverageReport:
    """
    All four chirality limits plus their sum, as a report.  Raises
    ValueError unless the coin equals the diffusion coin.
    """
    if not _is_grover(coin):
        raise ValueError("the infinite-lattice limit covers the grover coin")
    values = [limit_time_average(initial, chirality) for chirality in CHIRALITIES]
    return _report("limit", "all", coin.label, initial.describe(), None, values)


def closed_form_report(
    coin: Coin, initial: InitialSpec, size: int, parity: str = "all"
) -> TimeAverageReport:
    """
    `grover_closed_form` as a report covering chirality R alone, with
    `total` None.  Raises ValueError unless the coin equals the diffusion
    coin and the walk starts in the pure R state.
    """
    if not _is_grover(coin) or initial.describe() != "R":
        raise ValueError("the closed form covers the grover coin started in the pure R state")
    value = grover_closed_form(size, parity)
    return TimeAverageReport("closed-form", parity, coin.label, "R", int(size), (value,), None)


AlphaExtrema = namedtuple("AlphaExtrema", ["alpha_min", "alpha_max"])


def alpha_extrema() -> AlphaExtrema:
    """
    Distinguished points of the two-component scan (alpha, sqrt(1-alpha^2)):
    the chirality-R limit vanishes at alpha_min and is maximal at
    magnitude alpha_max (the printed maximum location sits on the
    negative-beta branch; on the scan's beta >= 0 branch the argmax is
    -alpha_max, the same state up to a global phase).
    """
    denom = 16.0 - 8.0 * math.pi + 2.0 * math.pi ** 2
    return AlphaExtrema(
        alpha_min=math.sqrt(1.0 - math.pi ** 2 / denom),
        alpha_max=math.pi / math.sqrt(denom),
    )


def scan_alpha(samples: int) -> np.ndarray:
    """
    Tabulate the chirality-R and chirality-L limits along the family
    (alpha, beta) = (alpha, sqrt(1 - alpha^2)), alpha in [-1, 1].

    Returns an array of rows (alpha, p_R, p_L).
    """
    samples = int(samples)
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    alphas = np.linspace(-1.0, 1.0, samples)
    betas = np.sqrt(np.clip(1.0 - alphas ** 2, 0.0, None))
    zeros = np.zeros(samples)
    amps = _limit_amplitudes(np.column_stack([alphas, betas, zeros, zeros]))
    return np.column_stack([alphas, amps[:, :2] ** 2])


def scan_csv(samples: int) -> str:
    """`scan_alpha` as CSV text: the header `alpha,p_R,p_L`, then one `%.17g` row per sample."""
    rows = _table_rows(["", ",", ",", "\n"], list(scan_alpha(samples).T), shortest=False)
    return "".join(["alpha,p_R,p_L\n", *rows])


def write_scan_csv(path, samples: int) -> None:
    pathlib.Path(path).write_text(scan_csv(samples))


@dataclass(frozen=True)
class LocalizationReport:
    """Verdict of the degeneracy-based localization predictor."""

    localizing: bool
    common_eigenvalues: tuple[complex, ...]
    max_multiplicity: int


def localization_predictor(coin: Coin, size: int) -> LocalizationReport:
    """
    Predict localization from the block spectra alone.

    The walk localizes iff some eigenvalue is shared by every momentum
    block: its multiplicity then grows like N^2, so the associated
    origin amplitude survives the infinite-lattice limit.
    """
    decomposition = SpectralDecomposition.build(coin, size)
    common = decomposition.common_eigenvalues()
    return LocalizationReport(
        localizing=bool(common),
        common_eigenvalues=common,
        max_multiplicity=decomposition.max_multiplicity(),
    )


IntegralConstants = namedtuple("IntegralConstants", ["i1", "i2"])

#: Quadrature must reproduce the closed forms at least this well.
_QUADRATURE_TOL = 1e-11
#: Midpoints per axis: at 500 the rule is off by 1.1e-12 and 5.6e-13, 9x inside the bound.
_QUADRATURE_POINTS = 500


def _integrand_opposite(x, y):
    # bounded: numerator and denominator vanish together at the corner, where no midpoint lies
    cx, cy = np.cos(x), np.cos(y)
    return 2.0 * (cx + cy - 2.0 * cx * cy) / (-2.0 + cx + cy)


def _integrand_transverse(x, y):
    return 8.0 * np.sin(x) ** 2 * np.sin(y) ** 2 / (2.0 - np.cos(2.0 * x) - np.cos(2.0 * y))


def _square_mean(integrand, side: float) -> float:
    """Mean of integrand(x, y) over [0, side]^2 by the midpoint rule."""
    t = (np.arange(_QUADRATURE_POINTS) + 0.5) * (side / _QUADRATURE_POINTS)
    return float(integrand(t[:, None], t[None, :]).mean())


def integral_constants() -> IntegralConstants:
    """
    The two lattice-sum limits behind the infinite-lattice values:

        i1 = 1/4 - 1/pi       (opposite-chirality coefficient sum)
        i2 = 1/4 - 1/(2 pi)   (transverse-chirality coefficient sum)

    Closed forms are returned; a midpoint-rule quadrature of the
    defining integrands, i1 over [0, pi]^2 and i2 over [0, pi/2]^2, is
    run as a cross-check.

    Raises
    ------
    ConsistencyError
        If quadrature disagrees with a closed form by more than 1e-11.
    """
    i1 = 0.25 - 1.0 / math.pi
    i2 = 0.25 - 0.5 / math.pi
    # each integral over its normalization (8 pi^2, 2 pi^2) is the mean over its square / 8
    err1 = abs(_square_mean(_integrand_opposite, math.pi) / 8.0 - i1)
    err2 = abs(_square_mean(_integrand_transverse, math.pi / 2.0) / 8.0 - i2)
    if not (err1 <= _QUADRATURE_TOL and err2 <= _QUADRATURE_TOL):
        raise ConsistencyError(
            f"quadrature check failed: errors {err1:.3g} (i1) and {err2:.3g} (i2) "
            f"must both be at most {_QUADRATURE_TOL:g}"
        )
    return IntegralConstants(i1=i1, i2=i2)
