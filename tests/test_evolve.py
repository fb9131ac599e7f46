import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qwalk2d
from qwalk2d import (
    ConsistencyError,
    WalkState,
    a1_coin,
    a2_coin,
    custom_coin,
    empirical_time_average,
    evolve,
    grover_coin,
    origin_superposition,
    pure_state,
    step,
    symmetric_family,
    InitialSpec,
)
from qwalk2d import state as state_module, timeavg


def random_unitary_coin(seed: int):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    q = q * np.exp(-1j * np.angle(np.diag(r)))[None, :]
    return custom_coin(q, label=f"random-{seed}")


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
    """A real coin passed to `custom_coin` as a complex array with every imaginary part 0."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(4, 4)))
    return custom_coin(q + 0j, label=f"orthogonal-{seed}")


# real coins take the stepper's real (8, 8) product, complex ones the complex (4, 4) product
KERNEL_COINS = [
    random_unitary_coin(101),
    grover_coin(),
    a1_coin(),
    a2_coin(),
    symmetric_family(0.3),
    random_orthogonal_coin(5),
    custom_coin(grover_coin().entries * np.exp(1e-9j), label="grover-phase-1e-9"),
]


def test_kernel_coins_cover_both_coin_products():
    assert [coin.is_real for coin in KERNEL_COINS] == [False, True, True, True, True, True, False]


@pytest.mark.parametrize("coin", KERNEL_COINS, ids=lambda c: c.label)
@pytest.mark.parametrize("n", [3, 5, 21])
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


def assert_empirical_equals_reference(coin, parity, horizon):
    initial = random_state(5, seed=11)
    before = initial.amplitudes.copy()
    report = empirical_time_average(initial, coin, horizon, site=(1, -2), parity=parity)
    assert report.per_chirality == reference_empirical(initial, coin, horizon, (1, -2), parity)
    assert np.array_equal(initial.amplitudes, before) and initial.t == 3


@pytest.mark.parametrize("parity", ["all", "even", "odd"])
@pytest.mark.parametrize("horizon", [2, 41, 60])
def test_empirical_equals_per_step_reference_bit_for_bit(parity, horizon):
    coin = random_unitary_coin(7)
    assert not coin.is_real
    assert_empirical_equals_reference(coin, parity, horizon)


@pytest.mark.parametrize("coin", [grover_coin(), a2_coin()], ids=lambda c: c.label)
@pytest.mark.parametrize("parity", ["all", "even", "odd"])
@pytest.mark.parametrize("horizon", [2, 41, 60])
def test_empirical_real_coin_equals_per_step_reference_bit_for_bit(coin, parity, horizon):
    assert coin.is_real
    assert_empirical_equals_reference(coin, parity, horizon)


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
    coin = custom_coin((1 + 2e-10) * grover_coin().entries)
    state = evolve(pure_state(5, "R"), coin, 20_000)
    assert state.norm_sq() - 1.0 > 1e-6
    report = empirical_time_average(pure_state(5, "R"), coin, 20_000)
    assert report.total > 0.0


def test_identity_coin_is_pure_right_shift():
    identity = custom_coin(np.eye(4), label="identity")
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
