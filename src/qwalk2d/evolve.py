"""
Direct time evolution of the coined walk.

One step applies the coin at every site and then shifts each chirality
component one site along its direction, with periodic wraparound:
R moves +x, L moves -x, U moves +y, D moves -y.  Each call allocates two
(N, N, 4) buffers and one gather index and reuses them for every step:
the coin is one matrix product from the state buffer into the mixing
buffer, and the shift gathers the mixing buffer back through the index,
so it never reads the buffer it writes.  A real coin (every paper coin)
multiplies float64 views of the buffers, rows (re0, im0, ..., re3, im3),
by the real 8 x 8 matrix kron(C^T, I2): the complex product's bits at
half its arithmetic.  A complex coin keeps the complex product, since
its real 8 x 8 form differs from it by up to one ulp.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

from .coins import CUSTOM_UNITARITY_TOL, Coin, unitarity_residual
from .state import NORM_TOL, ConsistencyError, WalkState

__all__ = ["evolve", "step"]

#: Displacement (dx, dy) applied to each chirality component, in (R, L, U, D) order.
SHIFTS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def trajectory(state: WalkState, coin: Coin):
    """
    Yield the amplitudes at t = state.t, state.t + 1, ...: always the same
    (N, N, 4) buffer, advanced one step in place between yields.  The
    input state is copied, never mutated.
    """
    amplitudes = state.amplitudes.copy()
    mixed = np.empty_like(amplitudes)
    n, (dx, dy) = state.n, np.array(SHIFTS).T
    x, y = np.arange(n)[:, None, None], np.arange(n)[None, :, None]
    # (x, y, c) is gathered from (x - dx_c, y - dy_c, c) mod n; one full-size temporary
    index = (x - dx) % n * n + (y - dy) % n
    index *= 4
    index += np.arange(4)
    flat, mixed_flat, index = amplitudes.reshape(-1), mixed.reshape(-1), index.reshape(-1)
    source, target, gate = amplitudes, mixed, coin.entries.T
    if coin.is_real:
        # rows (re0, im0, ..., re3, im3) times kron(C^T, I2): bit-identical to the complex
        # product at half its arithmetic; a complex coin's real form moves last bits (1 ulp)
        source, target = amplitudes.view(np.float64), mixed.view(np.float64)
        gate = np.kron(gate.real, np.eye(2))
    while True:
        yield amplitudes
        # N stacked (N, 4) @ (4, 4) products (8 x 8 real): one (N^2, 4) product is large
        # enough for OpenBLAS to go multithreaded, which stalled for milliseconds per call
        np.matmul(source, gate, out=target)
        # every index is in range; "wrap" only spares take() the output copy "raise" makes
        mixed_flat.take(index, out=flat, mode="wrap")


def check_norm(
    amplitudes: np.ndarray,
    start_norm_sq: float,
    coin: Coin,
    steps: int,
    rounding_per_step: float = 0.0,
) -> None:
    """
    Raise ConsistencyError when `steps` steps moved the norm^2 of the state
    away from `start_norm_sq` by more than rounding (NORM_TOL) plus what
    the coin's own non-unitarity allows.

    Each step scales the norm^2 by at most 1 + r with r = ||C^H C - I||_2,
    which is at most 4 times the entrywise residual; r is capped at what
    `Coin` admits (CUSTOM_UNITARITY_TOL), so a coin set past validation
    gets no more.  A caller whose rounding compounds over the steps (the
    spectral block powers) adds `rounding_per_step` of norm^2 per step.
    """
    residual = 4.0 * min(unitarity_residual(coin.entries), CUSTOM_UNITARITY_TOL)
    growth = steps * rounding_per_step + math.expm1(steps * math.log1p(residual))
    limit = NORM_TOL + start_norm_sq * growth
    drift = abs(float((np.abs(amplitudes) ** 2).sum()) - start_norm_sq)
    if not drift <= limit:
        raise ConsistencyError(
            f"state norm drifted by {drift:.3e} over {steps} steps (limit {limit:.1e})"
        )


def step(state: WalkState, coin: Coin) -> WalkState:
    """
    Advance the walk by one step.

    The new R amplitude at (x, y) is the coin's first row applied to the
    chirality vector at (x-1, y), and analogously for L, U, D from
    (x+1, y), (x, y-1), (x, y+1), all mod N.
    """
    return evolve(state, coin, 1)


def evolve(state: WalkState, coin: Coin, steps: int) -> WalkState:
    """
    Advance the walk by `steps` steps; steps = 0 returns the input.

    Raises ConsistencyError when the final norm drifts from the input's
    by more than `check_norm` allows.
    """
    steps = int(steps)
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if steps == 0:
        return state
    start_norm_sq = state.norm_sq()
    amplitudes = next(islice(trajectory(state, coin), steps, None))
    check_norm(amplitudes, start_norm_sq, coin, steps)
    return WalkState(amplitudes, state.t + steps, validate=False)
