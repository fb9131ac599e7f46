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

Both the product and the gather work lattice row by lattice row, and
both release the GIL, so `evolve` splits the rows into contiguous bands,
one thread per CPU the process may run on, each band at least
MIN_BAND_ROWS rows.  Every step, each band mixes its own rows, waits at
a barrier for the others, gathers its own rows and waits again; the
result is bit-identical to one thread's.  On 2 CPUs two bands break
even near N = 120 and take 0.6 times the serial time at N = 201 and 301,
while at N = 31 a second band is 25 times slower: hence the floor.
There is no setting; smaller lattices, and `trajectory`, run serially.
On a lattice of at most FLAT_PRODUCT_MAX_N rows `trajectory` multiplies
the whole lattice by the coin in one product instead, with the same bits.
"""

from __future__ import annotations

import math
import os
import threading
from itertools import islice
from typing import NamedTuple

import numpy as np

from .coins import CUSTOM_UNITARITY_TOL, Coin, unitarity_residual
from .state import NORM_TOL, ConsistencyError, WalkState

__all__ = ["evolve", "step"]

#: Displacement (dx, dy) applied to each chirality component, in (R, L, U, D) order.
SHIFTS = ((1, 0), (-1, 0), (0, 1), (0, -1))
#: Fewest lattice rows per band of `evolve` (see the module docstring).
MIN_BAND_ROWS = 64
#: Largest N at which `trajectory` multiplies the whole lattice by the coin in one
#: product; larger lattices, and the bands of `evolve`, multiply row by row.
FLAT_PRODUCT_MAX_N = 101


class _Stepper(NamedTuple):
    """
    The buffers and gather index of one evolution.  One step is
    `np.matmul(source, gate, out=target)` and then
    `mixed_flat.take(index, out=flat, mode="wrap")`; both act lattice row
    by lattice row, so a band of rows can take its share of each alone.
    """

    amplitudes: np.ndarray
    source: np.ndarray
    target: np.ndarray
    gate: np.ndarray
    flat: np.ndarray
    mixed_flat: np.ndarray
    index: np.ndarray


def _stepper(state: WalkState, coin: Coin) -> _Stepper:
    """The stepper of `coin` starting from a copy of the state's amplitudes."""
    amplitudes = state.amplitudes.copy()
    mixed = np.empty_like(amplitudes)
    n, (dx, dy) = state.n, np.array(SHIFTS).T
    x, y = np.arange(n)[:, None, None], np.arange(n)[None, :, None]
    # (x, y, c) is gathered from (x - dx_c, y - dy_c, c) mod n; one full-size temporary
    index = (x - dx) % n * n + (y - dy) % n
    index *= 4
    index += np.arange(4)
    source, target, gate = amplitudes, mixed, coin.entries.T
    if coin.is_real:
        # rows (re0, im0, ..., re3, im3) times kron(C^T, I2): bit-identical to the complex
        # product at half its arithmetic; a complex coin's real form moves last bits (1 ulp)
        source, target = amplitudes.view(np.float64), mixed.view(np.float64)
        gate = np.kron(gate.real, np.eye(2))
    return _Stepper(amplitudes, source, target, gate, amplitudes.reshape(-1),
                    mixed.reshape(-1), index.reshape(-1))


def trajectory(state: WalkState, coin: Coin):
    """
    Yield the amplitudes at t = state.t, state.t + 1, ...: always the same
    (N, N, 4) buffer, advanced one step in place between yields.  The
    input state is copied, never mutated.
    """
    amplitudes, source, target, gate, flat, mixed_flat, index = _stepper(state, coin)
    if state.n <= FLAT_PRODUCT_MAX_N:
        # one (N^2, 8) @ (8, 8) product (complex (N^2, 4) @ (4, 4)) costs one BLAS call
        # where N stacked row products cost N; above the bound the flat product goes
        # multithreaded and loses to the rows (bench/trajectory.py, coin product rows)
        source, target = source.reshape(-1, gate.shape[0]), target.reshape(-1, gate.shape[0])
    while True:
        yield amplitudes
        np.matmul(source, gate, out=target)
        # every index is in range; "wrap" only spares take() the output copy "raise" makes
        mixed_flat.take(index, out=flat, mode="wrap")


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _band_steps(stepper: _Stepper, lo: int, hi: int, steps: int, barrier) -> None:
    """
    Advance lattice rows lo..hi-1 by `steps` steps in lockstep with the
    other bands: the coin on the band's rows, a barrier (the shift reads
    the neighbouring bands' mixed rows), the shift into the band's rows,
    and a barrier (the next coin overwrites mixed rows that a neighbour's
    shift may still read).
    """
    width = stepper.flat.size // stepper.source.shape[0]
    source, target = stepper.source[lo:hi], stepper.target[lo:hi]
    flat, index = stepper.flat[lo * width:hi * width], stepper.index[lo * width:hi * width]
    gate, mixed_flat = stepper.gate, stepper.mixed_flat
    for _ in range(steps):
        np.matmul(source, gate, out=target)
        barrier.wait()
        mixed_flat.take(index, out=flat, mode="wrap")
        barrier.wait()


def _advance(stepper: _Stepper, steps: int, parts: int) -> np.ndarray:
    """
    Return the stepper's amplitudes advanced by `steps` steps, with the
    lattice rows split into `parts` (at most N) contiguous bands, one
    thread each; the calling thread works the first band.  A band that
    raises aborts the barrier, which stops the others at their next wait,
    and its error is raised here once every thread has been joined.
    """
    n = stepper.source.shape[0]
    parts = min(parts, n)
    bounds = [n * k // parts for k in range(parts + 1)]
    barrier = threading.Barrier(parts)
    errors = []

    def band(lo, hi):
        try:
            _band_steps(stepper, lo, hi, steps, barrier)
        except BaseException as error:
            errors.append(error)
            barrier.abort()

    started = []
    try:
        for k in range(1, parts):
            thread = threading.Thread(target=band, args=bounds[k:k + 2], daemon=True)
            thread.start()
            started.append(thread)
        band(*bounds[:2])
    except BaseException:  # a thread failed to start: release those waiting for it
        barrier.abort()
        raise
    finally:
        for thread in started:
            thread.join()
    if errors:
        # the first band to fail broke the barrier for the others
        raise next((e for e in errors if not isinstance(e, threading.BrokenBarrierError)),
                   errors[0])
    return stepper.amplitudes


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


def evolve(state: WalkState, coin: Coin, steps: int, *, _parts: int | None = None) -> WalkState:
    """
    Advance the walk by `steps` steps; steps = 0 returns the input.

    The lattice rows are split into min(CPUs, N // MIN_BAND_ROWS) bands,
    one thread each (see the module docstring); one band runs the serial
    loop of `trajectory`.  `_parts` sets the band count in tests.  No
    thread outlives the call, whether it returns or raises.

    Raises ConsistencyError when the final norm drifts from the input's
    by more than `check_norm` allows.
    """
    steps = int(steps)
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if steps == 0:
        return state
    start_norm_sq = state.norm_sq()
    parts = min(_cpu_count(), state.n // MIN_BAND_ROWS) if _parts is None else _parts
    if parts > 1:
        # keeps only the amplitudes, as the serial loop does, so the gather index and
        # the mixing buffer are freed before check_norm's temporaries
        amplitudes = _advance(_stepper(state, coin), steps, parts)
    else:
        amplitudes = next(islice(trajectory(state, coin), steps, None))
    check_norm(amplitudes, start_norm_sq, coin, steps)
    return WalkState(amplitudes, state.t + steps, validate=False)
