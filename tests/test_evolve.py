import importlib
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qwalk2d
from qwalk2d import (
    Coin,
    ConsistencyError,
    WalkState,
    a1_coin,
    a2_coin,
    empirical_time_average,
    evolve,
    evolve_spectral,
    grover_coin,
    origin_superposition,
    pure_state,
    step,
    symmetric_family,
    InitialSpec,
)
from qwalk2d import state as state_module, timeavg

# the package re-exports `evolve` the function over `evolve` the module
evolve_module = importlib.import_module("qwalk2d.evolve")


def random_unitary_coin(seed: int):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    q = q * np.exp(-1j * np.angle(np.diag(r)))[None, :]
    return Coin(q, label=f"random-{seed}")


def reference_step(amplitudes, coin):
    """One coin-and-shift step by four np.roll copies, the stepper the fused kernel replaced."""
    mixed = amplitudes @ coin.entries.T
    out = np.empty_like(mixed)
    for c, shift in enumerate(((1, 0), (-1, 0), (0, 1), (0, -1))):
        out[:, :, c] = np.roll(mixed[:, :, c], shift, axis=(0, 1))
    return out


def random_state(n, seed):
    """A normalized state with every amplitude nonzero, so every gather entry matters."""
    rng = np.random.default_rng(seed)
    amplitudes = rng.normal(size=(n, n, 4)) + 1j * rng.normal(size=(n, n, 4))
    return WalkState(amplitudes / np.sqrt((np.abs(amplitudes) ** 2).sum()), 3)


def random_orthogonal_coin(seed: int):
    """A real coin passed to `Coin` as a complex array with every imaginary part 0."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(4, 4)))
    return Coin(q + 0j, label=f"orthogonal-{seed}")


# real coins take the stepper's real (8, 8) product, complex ones the complex (4, 4) product
KERNEL_COINS = [
    random_unitary_coin(101),
    grover_coin(),
    a1_coin(),
    a2_coin(),
    symmetric_family(0.3),
    random_orthogonal_coin(5),
    Coin(grover_coin().entries * np.exp(1e-9j), label="grover-phase-1e-9"),
]


def test_kernel_coins_cover_both_coin_products():
    assert [coin.is_real for coin in KERNEL_COINS] == [False, True, True, True, True, True, False]


# the last two sit on either side of the largest lattice one band multiplies a real coin over
# in one product; complex coins take the flat product on both
PRODUCT_SIDES = [evolve_module.FLAT_PRODUCT_MAX_N, evolve_module.FLAT_PRODUCT_MAX_N + 2]


@pytest.mark.parametrize("coin", KERNEL_COINS, ids=lambda c: c.label)
@pytest.mark.parametrize("n", [3, 5, 21] + PRODUCT_SIDES)
def test_evolve_equals_roll_reference_bit_for_bit(coin, n):
    initial = random_state(n, seed=n)
    before = initial.amplitudes.copy()
    expected, done = initial.amplitudes, 0
    for t in (0, 1, 2, 37):
        while done < t:
            expected, done = reference_step(expected, coin), done + 1
        got = evolve(initial, coin, t)
        assert got.t == initial.t + t
        assert np.array_equal(got.amplitudes, expected)
    assert np.array_equal(initial.amplitudes, before) and initial.t == 3
    one = step(initial, coin)
    assert one.t == initial.t + 1
    assert np.array_equal(one.amplitudes, evolve(initial, coin, 1).amplitudes)


def banded(state, coin, steps, parts):
    """`evolve`'s stepping with the lattice rows split into `parts` bands, and no norm check."""
    amplitudes = evolve_module._advance(evolve_module._stepper(state, coin), state.n, steps, parts)
    return WalkState(amplitudes, state.t + steps, validate=False)


# N = 3 gives one-row bands, and parts = 5 asks for more bands than N = 3 has rows
@pytest.mark.parametrize("coin", KERNEL_COINS, ids=lambda c: c.label)
@pytest.mark.parametrize("n", [3, 7, 21])
@pytest.mark.parametrize("parts", [1, 2, 3, 5])
def test_banded_evolve_equals_roll_reference_bit_for_bit(coin, n, parts):
    initial = random_state(n, seed=n + 1)
    expected = initial.amplitudes
    for t in range(1, 7):
        expected = reference_step(expected, coin)
        if t in (1, 6):
            got = banded(initial, coin, t, parts)
            assert got.t == initial.t + t
            assert np.array_equal(got.amplitudes, expected)


def test_band_count_follows_cpus_and_row_floor(monkeypatch):
    seen = []
    # the first yield is the initial state: the stepper never ran, so the norm holds
    monkeypatch.setattr(evolve_module, "_advance",
                        lambda band, rows, steps, parts: seen.append(parts) or next(band(0, rows)))
    monkeypatch.setattr(evolve_module, "_cpu_count", lambda: 4)
    for n in (127, 129, 193, 301):
        evolve(pure_state(n, "R"), grover_coin(), 1)
    assert seen == [1, 2, 3, 4]


@pytest.mark.parametrize("n, parts", [(21, 3), (201, None)])
def test_evolve_leaves_no_thread_behind(n, parts):
    before = threading.active_count()
    if parts is None:
        evolve(pure_state(n, "R"), grover_coin(), 5)
    else:
        banded(pure_state(n, "R"), grover_coin(), 5, parts)
    assert threading.active_count() == before


def test_one_band_evolve_starts_no_thread_and_no_barrier(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a one-band evolve made a thread or a barrier")

    monkeypatch.setattr(evolve_module, "_cpu_count", lambda: 4)
    monkeypatch.setattr(threading, "Thread", refused)
    monkeypatch.setattr(threading, "Barrier", refused)
    initial = random_state(21, seed=2)
    got = evolve(initial, grover_coin(), 5)
    assert np.array_equal(got.amplitudes, banded(initial, grover_coin(), 5, 1).amplitudes)


def test_evolve_frees_its_index_and_mixing_buffer_before_the_norm_check():
    # the state copy (64 N^2 bytes), the mixing buffer (64) and the gather index (32)
    # are alive while stepping, about 164 N^2 in all; check_norm's |a|^2 (32) must come
    # after the index and the mixing buffer are freed, or the peak reaches about 193 N^2
    n, initial = 201, pure_state(201, "R")
    evolve(initial, grover_coin(), 3)
    tracemalloc.start()
    try:
        evolve(initial, grover_coin(), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 180 * n ** 2


class PlantedError(RuntimeError):
    pass


def run_bounded(fn, timeout=30.0):
    """fn() in a helper thread joined within `timeout` s: (finished, its error or None)."""
    outcome = []

    def target():
        try:
            fn()
        except BaseException as error:
            outcome.append(error)
        else:
            outcome.append(None)

    helper = threading.Thread(target=target, daemon=True)
    helper.start()
    helper.join(timeout)
    return not helper.is_alive(), outcome[0] if outcome else None


def test_many_bands_under_fast_thread_switching_stay_bit_identical():
    # more bands than cores, switching threads every microsecond: a missing or
    # misplaced barrier lets a band read rows its neighbour has not finished
    coin, initial = random_unitary_coin(3), random_state(21, seed=4)
    want = banded(initial, coin, 40, 1).amplitudes
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = []
        finished, error = run_bounded(
            lambda: got.extend(banded(initial, coin, 40, 7).amplitudes for _ in range(5)))
    finally:
        sys.setswitchinterval(interval)
    assert finished and error is None
    assert all(np.array_equal(amplitudes, want) for amplitudes in got) and len(got) == 5


@pytest.mark.parametrize("failing", [0, 1, 2])
def test_failing_band_raises_in_caller_and_joins_every_thread(monkeypatch, failing):
    stepper = evolve_module._stepper

    class FailingBarrier:
        """Raises in band `failing` at its fifth wait, mid-run."""

        def __init__(self, barrier, band):
            self.barrier, self.band, self.waits = barrier, band, 0

        def wait(self):
            self.waits += 1
            if self.band == failing and self.waits == 5:
                raise PlantedError(f"band {failing}")
            return self.barrier.wait()

    def planted(state, coin):
        band = stepper(state, coin)
        return lambda lo, hi, barrier: band(lo, hi, FailingBarrier(barrier, lo // 7))

    monkeypatch.setattr(evolve_module, "_stepper", planted)
    before = threading.active_count()
    finished, error = run_bounded(lambda: banded(pure_state(21, "R"), grover_coin(), 50, 3))
    assert finished, "evolve did not return after a band raised"
    assert isinstance(error, PlantedError) and str(error) == f"band {failing}"
    assert threading.active_count() == before


def test_band_thread_that_fails_to_start_raises_in_caller_and_releases_the_others(monkeypatch):
    # the second band thread cannot start, as when the process is out of threads, while
    # the first already waits at the barrier: the caller must abort the barrier, join
    # that thread and raise the start error
    barriers, band_starts = [], []
    caller, start = threading.current_thread(), threading.Thread.start

    class RecordedBarrier(threading.Barrier):
        def __init__(self, parties):
            super().__init__(parties)
            barriers.append(self)

    def failing_start(thread):
        # run_bounded's helper is started by the test's thread, the bands by the helper
        if threading.current_thread() is not caller:
            band_starts.append(thread)
            if len(band_starts) == 2:
                deadline = time.monotonic() + 10.0
                while barriers[0].n_waiting < 1 and time.monotonic() < deadline:
                    time.sleep(1e-3)
                raise RuntimeError("can't start new thread")
        return start(thread)

    monkeypatch.setattr(threading, "Barrier", RecordedBarrier)
    monkeypatch.setattr(threading.Thread, "start", failing_start)
    before = threading.active_count()
    finished, error = run_bounded(lambda: banded(pure_state(21, "R"), grover_coin(), 50, 3))
    assert finished, "evolve did not return after a band thread failed to start"
    assert type(error) is RuntimeError and str(error) == "can't start new thread"
    assert barriers[0].n_waiting == 0 and len(band_starts) == 2
    assert threading.active_count() == before


def reference_empirical(initial, coin, horizon, site, parity):
    """Per-step loop over every t < horizon, stepping by `reference_step`."""
    ix, iy = site[0] % initial.n, site[1] % initial.n
    acc, count, amplitudes = np.zeros(4), 0, initial.amplitudes
    for t in range(horizon):
        if parity == "all" or t % 2 == (parity == "odd"):
            acc += np.abs(amplitudes[ix, iy]) ** 2
            count += 1
        amplitudes = reference_step(amplitudes, coin)
    return tuple(acc / count)


def assert_empirical_equals_reference(coin, parity, horizon, n=5):
    initial = random_state(n, seed=11)
    before = initial.amplitudes.copy()
    report = empirical_time_average(initial, coin, horizon, site=(1, -2), parity=parity)
    assert report.per_chirality == reference_empirical(initial, coin, horizon, (1, -2), parity)
    assert np.array_equal(initial.amplitudes, before) and initial.t == 3


# the last three fill the fold buffer exactly, pass it by one and wrap it twice
HORIZONS = [2, 41, 60, timeavg.FOLD_ROWS, timeavg.FOLD_ROWS + 1, 2 * timeavg.FOLD_ROWS + 1]


@pytest.mark.parametrize("parity", ["all", "even", "odd"])
@pytest.mark.parametrize("horizon", HORIZONS)
def test_empirical_equals_per_step_reference_bit_for_bit(parity, horizon):
    coin = random_unitary_coin(7)
    assert not coin.is_real
    assert_empirical_equals_reference(coin, parity, horizon)


@pytest.mark.parametrize("coin", [grover_coin(), a2_coin()], ids=lambda c: c.label)
@pytest.mark.parametrize("parity", ["all", "even", "odd"])
@pytest.mark.parametrize("horizon", HORIZONS)
def test_empirical_real_coin_equals_per_step_reference_bit_for_bit(coin, parity, horizon):
    assert coin.is_real
    assert_empirical_equals_reference(coin, parity, horizon)


@pytest.mark.parametrize("coin", [random_unitary_coin(7), grover_coin()], ids=lambda c: c.label)
@pytest.mark.parametrize("n", [21] + PRODUCT_SIDES)
def test_empirical_equals_per_step_reference_bit_for_bit_on_larger_lattices(coin, n):
    assert_empirical_equals_reference(coin, "all", 41 if n == 21 else 7, n)


def test_planted_non_unitary_coin_raises_consistency_error():
    assert qwalk2d.ConsistencyError is timeavg.ConsistencyError is state_module.ConsistencyError
    coin = grover_coin()
    object.__setattr__(coin, "entries", 1.001 * coin.entries)  # past Coin validation
    with pytest.raises(ConsistencyError, match="norm drifted"):
        evolve(pure_state(5, "R"), coin, 3)
    with pytest.raises(ConsistencyError, match="norm drifted"):
        step(pure_state(5, "R"), coin)
    with pytest.raises(ConsistencyError, match="norm drifted"):
        empirical_time_average(pure_state(5, "R"), coin, 3)
    with pytest.raises(ConsistencyError, match="norm drifted"):
        evolve_spectral(pure_state(5, "R"), coin, 3)


def test_planted_nan_coin_raises_consistency_error():
    # NaN fails every comparison, so the drift check is written to fail on it
    coin = grover_coin()
    entries = coin.entries.copy()
    entries[0, 1] = np.nan
    object.__setattr__(coin, "entries", entries)  # past Coin validation
    with pytest.raises(ConsistencyError, match="norm drifted by nan"):
        evolve(pure_state(5, "R"), coin, 3)
    with pytest.raises(ConsistencyError, match="norm drifted by nan"):
        empirical_time_average(pure_state(5, "R"), coin, 3)


def test_admitted_decimal_coin_runs_long_without_raising():
    # Coin admits entrywise residuals up to 1e-9; this one is 4e-10, so the
    # norm^2 grows by about 4e-10 a step, past NORM_TOL within a step
    coin = Coin((1 + 2e-10) * grover_coin().entries)
    state = evolve(pure_state(5, "R"), coin, 20_000)
    assert state.norm_sq() - 1.0 > 1e-6
    report = empirical_time_average(pure_state(5, "R"), coin, 20_000)
    assert report.total > 0.0


def test_identity_coin_is_pure_right_shift():
    identity = Coin(np.eye(4), label="identity")
    state = evolve(pure_state(5, "R"), identity, 3)
    assert state.amplitude(-2, 0, "R") == 1.0  # 3 steps right wraps to -2 on N=5
    state = evolve(pure_state(5, "R"), identity, 5)
    assert state.amplitude(0, 0, "R") == 1.0


def test_one_grover_step_amplitudes():
    state = step(pure_state(5, "R"), grover_coin())
    assert state.t == 1
    assert state.amplitude(1, 0, "R") == pytest.approx(-0.5)
    assert state.amplitude(-1, 0, "L") == pytest.approx(0.5)
    assert state.amplitude(0, 1, "U") == pytest.approx(0.5)
    assert state.amplitude(0, -1, "D") == pytest.approx(0.5)
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "coin", [grover_coin(), a1_coin(), symmetric_family(0.25)]
)
def test_norm_preserved_many_steps(coin):
    state = evolve(pure_state(5, "U"), coin, 500)
    assert abs(state.norm_sq() - 1.0) < 1e-12


def test_norm_drift_budget_hundred_thousand_steps():
    state = evolve(pure_state(5, "R"), grover_coin(), 100_000)
    assert abs(state.norm_sq() - 1.0) < 1e-10


def test_zero_steps_returns_input():
    state = pure_state(5, "R")
    assert evolve(state, grover_coin(), 0) is state


def test_negative_steps_rejected():
    with pytest.raises(ValueError):
        evolve(pure_state(5, "R"), grover_coin(), -1)


@settings(deadline=None, max_examples=25)
@given(
    st.integers(min_value=0, max_value=10 ** 6),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-4, max_value=4),
)
def test_translation_covariance_is_exact(seed, dx, dy):
    coin = random_unitary_coin(seed)
    state = pure_state(5, "D", 1, -1)
    shifted_then_evolved = evolve(state.translated(dx, dy), coin, 3)
    evolved_then_shifted = evolve(state, coin, 3).translated(dx, dy)
    assert np.array_equal(
        shifted_then_evolved.amplitudes, evolved_then_shifted.amplitudes
    )


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_random_unitary_coin_preserves_probability(seed):
    coin = random_unitary_coin(seed)
    state = evolve(pure_state(5, "L"), coin, 20)
    assert abs(state.norm_sq() - 1.0) < 1e-11


def _snapshot(coin, n=51, steps=30, spec=None):
    spec = spec or InitialSpec.pure("R")
    state = evolve(origin_superposition(n, spec), coin, steps)
    return state.probability_grid(), state


def test_grover_snapshot_localizes():
    grid, state = _snapshot(grover_coin())
    origin = state.probability_at(0, 0)
    assert origin == pytest.approx(grid.max())
    # origin dominates every site outside the |x| + |y| <= 2 neighborhood
    xs = np.add.outer(np.abs(np.arange(-25, 26)), np.abs(np.arange(-25, 26)))
    assert origin > grid[xs > 2].max()


def test_a1_snapshot_spreads():
    _, state = _snapshot(a1_coin())
    assert state.probability_at(0, 0) < 0.01


def test_a4_snapshot_localizes():
    grid, state = _snapshot(symmetric_family(1 / 3))
    assert state.probability_at(0, 0) == pytest.approx(grid.max())
    assert state.probability_at(0, 0) > 0.3


def test_delocalizing_superposition_snapshot():
    w = np.exp(1j / 3) / 2
    _, state = _snapshot(grover_coin(), spec=InitialSpec(w, w, -w, -w))
    assert state.probability_at(0, 0) < 0.01
