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
There is no setting; one band, as on smaller lattices and in
`trajectory`, runs on the calling thread with no barrier.  One band
multiplies the whole lattice by the coin in one product, with the same
bits, when the coin is complex or the lattice has at most
FLAT_PRODUCT_MAX_N rows; otherwise the rows are multiplied one by one.
"""

from __future__ import annotations

import math
import os
import threading
from itertools import islice

import numpy as np

from .coins import CUSTOM_UNITARITY_TOL, Coin, unitarity_residual
from .state import NORM_TOL, ConsistencyError, WalkState

__all__ = ["evolve", "step"]

#: Displacement (dx, dy) applied to each chirality component, in (R, L, U, D) order.
SHIFTS = ((1, 0), (-1, 0), (0, 1), (0, -1))
#: Fewest lattice rows per band of `evolve` (see the module docstring).
MIN_BAND_ROWS = 64
#: Largest N at which one band multiplies a real coin over the whole lattice in one
#: product; larger lattices, and every band of several, multiply row by row.
FLAT_PRODUCT_MAX_N = 101


def _stepper(state: WalkState, coin: Coin):
    """
    The band factory of `coin` starting from a copy of the state's
    amplitudes: `band(lo, hi, barrier=None)` is a generator that yields the
    (N, N, 4) amplitudes buffer, then advances lattice rows lo..hi-1 by one
    step per `next` and yields it again.  A step is the coin on the band's
    rows, a barrier wait (the shift reads the neighbouring bands' mixed
    rows), the shift into the band's rows and a second wait (the next coin
    overwrites mixed rows that a neighbour's shift may still read); a band
    with no barrier is the whole lattice and waits for nothing.
    """
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
    flat, mixed_flat, index = amplitudes.reshape(-1), mixed.reshape(-1), index.reshape(-1)

    def band(lo: int, hi: int, barrier=None):
        rows, into = source[lo:hi], target[lo:hi]
        if barrier is None and (n <= FLAT_PRODUCT_MAX_N or not coin.is_real):
            # one (N^2, 8) @ (8, 8) product (complex (N^2, 4) @ (4, 4)) costs one BLAS call
            # where N stacked row products cost N; above the bound the real flat product goes
            # multithreaded and loses to the rows, and inside bands both flat products lose
            # (bench/trajectory.py, coin product rows)
            rows, into = rows.reshape(-1, gate.shape[0]), into.reshape(-1, gate.shape[0])
        gather, out = index[lo * 4 * n:hi * 4 * n], flat[lo * 4 * n:hi * 4 * n]
        while True:
            yield amplitudes
            np.matmul(rows, gate, out=into)
            if barrier is not None:
                barrier.wait()
            # every index is in range; "wrap" only spares take() the output copy "raise" makes
            mixed_flat.take(gather, out=out, mode="wrap")
            if barrier is not None:
                barrier.wait()

    return band


def trajectory(state: WalkState, coin: Coin):
    """
    Yield the amplitudes at t = state.t, state.t + 1, ...: always the same
    (N, N, 4) buffer, advanced one step in place between yields.  The
    input state is copied, never mutated.
    """
    return _stepper(state, coin)(0, state.n)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _advance(band, rows: int, steps: int, parts: int) -> np.ndarray:
    """
    Return the amplitudes of the band factory `band` (from `_stepper`, over
    `rows` lattice rows) advanced by `steps` steps, with the rows split into
    `parts` (at least 1, capped at `rows`) contiguous bands.  One band runs on
    the calling thread alone; more take one thread each, the calling thread
    working the first, in lockstep through one barrier.  A band that raises
    aborts the barrier, which stops the others at their next wait, and its
    error is raised here once every thread has been joined.
    """
    parts = min(parts, rows)
    if parts == 1:
        return next(islice(band(0, rows), steps, None))
    bounds = [rows * k // parts for k in range(parts + 1)]
    barrier = threading.Barrier(parts)
    errors = []

    def work(lo, hi):
        try:
            return next(islice(band(lo, hi, barrier), steps, None))
        except BaseException as error:
            errors.append(error)
            barrier.abort()

    started = []
    try:
        for k in range(1, parts):
            thread = threading.Thread(target=work, args=bounds[k:k + 2], daemon=True)
            thread.start()
            started.append(thread)
        amplitudes = work(*bounds[:2])
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
    return amplitudes


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

    The lattice rows are split into max(1, min(CPUs, N // MIN_BAND_ROWS))
    bands; the calling thread works the first, and each other band gets a
    thread (see the module docstring).  No thread outlives the call,
    whether it returns or raises.

    Raises ConsistencyError when the final norm drifts from the input's
    by more than `check_norm` allows.
    """
    steps = int(steps)
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if steps == 0:
        return state
    start_norm_sq = state.norm_sq()
    parts = max(1, min(_cpu_count(), state.n // MIN_BAND_ROWS))
    # keeps only the amplitudes, so the gather index and the mixing buffer are freed
    # before check_norm's temporaries
    amplitudes = _advance(_stepper(state, coin), state.n, steps, parts)
    check_norm(amplitudes, start_norm_sq, coin, steps)
    return WalkState(amplitudes, state.t + steps, validate=False)
