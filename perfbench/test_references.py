"""
Cross-checks of the benchmark's independent references at N <= 9.

    python3 -m pytest perfbench/test_references.py -q

Each reference is tested against the others: the index-arithmetic
stepper against powers of the full operator, the full operator's Schur
spectrum and time averages against the momentum-space reference, and the
paper's polynomials against both.
"""

import math
import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import inputs  # noqa: E402
import reference as ref  # noqa: E402

HAAR = inputs.haar_unitary(np.random.default_rng(7))
WEIGHTS = inputs.origin_weights(np.random.default_rng(8))
COINS = {
    "grover": ref.paper_coin("grover"),
    "a1": ref.paper_coin("a1"),
    "a2": ref.paper_coin("a2"),
    "a4:0.3": ref.paper_coin("a4:0.3"),
    "haar": HAAR,
}
PURE_R = np.array([1, 0, 0, 0], dtype=complex)


@pytest.mark.parametrize("name", COINS)
def test_paper_coins_are_unitary(name):
    c = COINS[name]
    assert np.abs(c.conj().T @ c - np.eye(4)).max() < 1e-12


@pytest.mark.parametrize("name", COINS)
@pytest.mark.parametrize("size", [3, 5])
def test_stepper_matches_full_operator_powers(name, size):
    u = ref.full_operator(COINS[name], size)
    assert np.abs(u.conj().T @ u - np.eye(len(u))).max() < 1e-12
    stepper = ref.Stepper(COINS[name], size)
    psi = stepper.initial(WEIGHTS)
    flat = psi.reshape(-1).copy()  # basis index (x * N + y) * 4 + c
    for _ in range(2 * size + 1):
        psi = stepper.step(psi)
        flat = u @ flat
        assert np.abs(psi.reshape(-1) - flat).max() < 1e-12


@pytest.mark.parametrize("name", COINS)
@pytest.mark.parametrize("size", [3, 5, 9])
def test_momentum_and_full_operator_spectra_agree(name, size):
    values, mult = ref.MomentumReference(COINS[name], size).clusters()
    full_values, full_mult = ref.FullOperatorReference(COINS[name], size).clusters()
    assert len(values) == len(full_values)
    assert mult.sum() == full_mult.sum() == 4 * size * size
    for value, count in zip(values, mult):
        best = np.argmin(np.abs(full_values - value))
        assert abs(full_values[best] - value) < 1e-9
        assert full_mult[best] == count


@pytest.mark.parametrize("name", ["grover", "a4:0.3"])
@pytest.mark.parametrize("size", [3, 5, 7, 9])
def test_plus_minus_one_multiplicities(name, size):
    values, mult = ref.MomentumReference(COINS[name], size).clusters()
    assert mult[np.abs(values + 1) < 1e-9].tolist() == [size * size + 2]
    assert mult[np.abs(values - 1) < 1e-9].tolist() == [size * size]


@pytest.mark.parametrize("name", COINS)
@pytest.mark.parametrize("size", [3, 5, 9])
@pytest.mark.parametrize("parity", ["all", "even", "odd"])
def test_time_averages_agree(name, size, parity):
    mom = ref.MomentumReference(COINS[name], size)
    full = ref.FullOperatorReference(COINS[name], size)
    for weights in (PURE_R, WEIGHTS):
        a = mom.expansion(weights).time_average(parity)
        b = full.expansion(weights).time_average(parity)
        assert np.abs(a - b).max() < 1e-12


@pytest.mark.parametrize("name", COINS)
def test_all_is_mean_of_even_and_odd(name):
    e = ref.MomentumReference(COINS[name], 7).expansion(WEIGHTS)
    mean = (e.time_average("even") + e.time_average("odd")) / 2
    assert np.abs(e.time_average("all") - mean).max() < 1e-13


@pytest.mark.parametrize("size", [3, 5, 7, 9])
@pytest.mark.parametrize("parity", ["all", "even", "odd"])
def test_closed_form_matches_both_references(size, parity):
    want = ref.closed_form(size, parity)
    for cls in (ref.MomentumReference, ref.FullOperatorReference):
        got = cls(COINS["grover"], size).expansion(PURE_R).time_average(parity)[0]
        assert abs(got - want) < 1e-12


def test_closed_form_limits():
    assert ref.closed_form(10 ** 6, "all") == pytest.approx(1 / 8, abs=1e-11)
    for size in (3, 9, 31):
        mean = (ref.closed_form(size, "even") + ref.closed_form(size, "odd")) / 2
        assert ref.closed_form(size, "all") == pytest.approx(mean, abs=1e-15)


@pytest.mark.parametrize("name", COINS)
@pytest.mark.parametrize("size", [5, 9])
def test_expansion_amplitude_matches_stepper(name, size):
    history = ref.Stepper(COINS[name], size).origin_history(WEIGHTS, 2 * size)
    for cls in (ref.MomentumReference, ref.FullOperatorReference):
        expansion = cls(COINS[name], size).expansion(WEIGHTS)
        _, merged = expansion.merged()
        assert np.abs(merged.sum(axis=0) - WEIGHTS).max() < 1e-12
        for t in range(2 * size + 1):
            assert np.abs(expansion.amplitude(t) - history[t]).max() < 1e-12


def test_common_eigenvalues_intersect_block_spectra():
    assert sorted(v.real for v in ref.MomentumReference(COINS["grover"], 9).common_eigenvalues()) \
        == pytest.approx([-1.0, 1.0])
    assert ref.MomentumReference(COINS["a1"], 9).common_eigenvalues() == []
    assert ref.MomentumReference(COINS["haar"], 9).common_eigenvalues() == []


def test_grouping_merges_across_minus_pi():
    eps = 1e-12
    values = np.exp(1j * np.array([math.pi - eps, -math.pi + eps, 0.5, 0.5 + eps, 2.0]))
    labels, count, diameter, gap = ref.group_by_phase(values)
    assert count == 3
    assert labels[0] == labels[1] and labels[2] == labels[3]
    assert len({labels[0], labels[2], labels[4]}) == 3
    assert diameter < 1e-11
    assert gap == pytest.approx(math.pi - 2.0, abs=1e-9)  # from 2.0 up to the merged +-pi


def test_generator_is_deterministic(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = inputs.generate(3, tmp_path / "a", (9,))
    b = inputs.generate(3, tmp_path / "b", (9,))
    assert a.custom == b.custom and np.array_equal(a.haar, b.haar)
    assert a.haar_path.read_text() == b.haar_path.read_text()
    parts = a.custom[len("custom:"):].split(",")
    parsed = np.array([complex(p.replace("i", "j")) for p in parts])
    assert np.array_equal(parsed, a.weights)
    assert abs(np.linalg.norm(a.weights) - 1.0) < 1e-15
    assert np.abs(a.haar.conj().T @ a.haar - np.eye(4)).max() < 1e-14
