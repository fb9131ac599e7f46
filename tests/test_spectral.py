import json
import math
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwalk2d import spectral
from qwalk2d import (
    ConsistencyError,
    InitialSpec,
    SpectralDecomposition,
    WalkState,
    a1_coin,
    a1_eigenvalues,
    a2_coin,
    build_block,
    custom_coin,
    evolve,
    evolve_spectral,
    exact_time_average,
    grover_coin,
    grover_eigenvalues,
    grover_eigenvectors,
    localization_predictor,
    origin_coefficients,
    origin_eigenvalue_amplitudes,
    origin_superposition,
    pure_state,
    symmetric_family,
)
from qwalk2d.evolve import check_norm
from qwalk2d.spectral import (
    DEGENERACY_TOL,
    SpectralError,
    block_matrix,
    cluster_labels,
    momentum_phases,
    sum_by_label,
)


def haar_coin(seed: int = 11):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    return custom_coin(q * np.exp(-1j * np.angle(np.diag(r)))[None, :], label="haar")


def orthogonal_coin(seed: int = 5):
    """A real orthogonal coin with no lattice symmetry."""
    q = np.linalg.qr(np.random.default_rng(seed).normal(size=(4, 4)))[0]
    return custom_coin(q, label="orthogonal")


def complex_grover():
    """The grover coin times e^{0.3 i}: complex, with every lattice symmetry of grover."""
    return custom_coin(grover_coin().entries * np.exp(0.3j), label="complex-grover")


#: Every coin class of the symmetry fold: four real coins with lattice
#: symmetries, a real coin without, a complex coin with and one without.
FOLD_COINS = [grover_coin(), a1_coin(), a2_coin(), symmetric_family(0.3), orthogonal_coin(),
              haar_coin(), complex_grover()]
FOLD_IDS = ["grover", "a1", "a2", "a4:0.3", "orthogonal", "haar", "complex-grover"]


def multiset_gap(a, b):
    """Largest distance in an optimal greedy matching of two 4-value multisets."""
    pool = list(a)
    worst = 0.0
    for value in b:
        best = min(range(len(pool)), key=lambda i: abs(pool[i] - value))
        worst = max(worst, abs(pool[best] - value))
        pool.pop(best)
    return worst


def test_block_matrix_is_phases_times_coin():
    coin = a2_coin()
    n, m, size = 2, 4, 7
    h = block_matrix(coin, n, m, size)
    w = np.exp(2j * np.pi / size)
    expected = np.diag([w ** -n, w ** n, w ** -m, w ** m]) @ coin.entries
    assert np.abs(h - expected).max() < 1e-15


def test_momentum_phases_order():
    w = np.exp(2j * np.pi / 5)
    phases = momentum_phases(1, 2, 5)
    assert phases[0] == pytest.approx(w ** -1)
    assert phases[1] == pytest.approx(w)
    assert phases[2] == pytest.approx(w ** -2)
    assert phases[3] == pytest.approx(w ** 2)


@pytest.mark.parametrize("size", [3, 9, 51, 201])
def test_momentum_phases_unimodular_and_conjugate_symmetric(size):
    n, m = np.indices((size, size))
    phases = momentum_phases(n, m, size)
    assert np.abs(np.abs(phases) - 1.0).max() <= 4.5e-16
    w = np.exp(2j * np.pi / size)
    assert np.abs(phases - np.stack([w ** -n, w ** n, w ** -m, w ** m], axis=-1)).max() < 1e-13
    up = phases[:, 0, 1]
    assert np.array_equal(up[size - np.arange(1, size)], up[1:].conj())
    assert np.array_equal(phases[..., 0], phases[..., 1].conj())
    # out-of-range momenta are reduced mod N before the table lookup
    assert np.array_equal(momentum_phases(n - size, m + 2 * size, size).view(np.uint64),
                          phases.view(np.uint64))
    assert np.array_equal(momentum_phases(1, -1, size).view(np.uint64),
                          phases[1, size - 1].view(np.uint64))
    # a real coin's mirrored block is the exact conjugate (a zero may change sign)
    for coin in (grover_coin(), a1_coin(), a2_coin(), symmetric_family(0.3)):
        assert np.array_equal(block_matrix(coin, -n, -m, size),
                              block_matrix(coin, n, m, size).conj())


@pytest.mark.parametrize(
    "coin", [grover_coin(), a1_coin(), a2_coin(), symmetric_family(0.7)]
)
def test_block_eigenvalues_unimodular(coin):
    for n in range(5):
        for m in range(5):
            values, _ = build_block(coin, n, m, 5)
            assert np.abs(np.abs(values) - 1.0).max() < 1e-12


def test_block_eigen_residuals():
    coin = a2_coin()
    for n in range(5):
        for m in range(5):
            values, vectors = build_block(coin, n, m, 5)
            residual = np.abs(
                block_matrix(coin, n, m, 5) @ vectors - vectors * values[None, :]
            ).max()
            assert residual < 1e-10


def test_block_rejects_out_of_range_momenta():
    with pytest.raises(ValueError):
        build_block(grover_coin(), 5, 0, 5)


def test_grover_eigenvalues_origin_block():
    values = grover_eigenvalues(0, 0, 5)
    assert multiset_gap(values, [-1, -1, -1, 1]) < 1e-15
    numeric = np.linalg.eigvals(block_matrix(grover_coin(), 0, 0, 5))
    assert multiset_gap(numeric, values) < 1e-12


def test_grover_eigenvalues_example_block():
    # c = cos 72 + cos 144 = -1/2, so l3/l4 = 0.25 -+ i sqrt(3.75)/2
    values = grover_eigenvalues(1, 2, 5)
    assert values[2] == pytest.approx(0.25 - 0.9682458365518543j, abs=1e-10)
    assert values[3] == pytest.approx(0.25 + 0.9682458365518543j, abs=1e-10)


def test_grover_eigenvalues_broadcast_matches_scalar_calls():
    size = 9
    n, m = np.indices((size, size))
    stacked = grover_eigenvalues(n, m, size)
    assert stacked.shape == (size, size, 4)
    for a in range(size):
        for b in range(size):
            scalar = grover_eigenvalues(a, b, size)
            assert scalar.shape == (4,)
            assert np.array_equal(stacked[a, b], scalar)


@pytest.mark.parametrize("size", [5, 7, 9])
def test_grover_eigenvalues_match_numeric_all_blocks(size):
    coin = grover_coin()
    for n in range(size):
        for m in range(size):
            numeric = np.linalg.eigvals(block_matrix(coin, n, m, size))
            assert multiset_gap(numeric, grover_eigenvalues(n, m, size)) < 1e-10


@pytest.mark.parametrize("size", [5, 7, 9])
def test_a1_eigenvalues_match_numeric_all_blocks(size):
    coin = a1_coin()
    for n in range(size):
        for m in range(size):
            closed = a1_eigenvalues(n, m, size)
            assert np.abs(np.abs(closed) - 1.0).max() < 1e-12
            numeric = np.linalg.eigvals(block_matrix(coin, n, m, size))
            assert multiset_gap(numeric, closed) < 1e-10


@pytest.mark.parametrize("size", [5, 9, 21])
def test_grover_eigenvalues_l3_rule(size):
    n, m = np.indices((size, size))
    values = grover_eigenvalues(n, m, size)
    off = values[n != m]
    assert (off[:, 2].imag <= 0).all() and (off[:, 3].imag >= 0).all()
    diagonal = np.arange(size)
    # past N/2 the angle 2 pi n / N itself rounds to ~1e-15, hence the bound
    closed = -np.exp(2j * np.pi * diagonal / size)
    assert np.abs(values[diagonal, diagonal, 2] - closed).max() <= 2e-15
    # past N/2 the diagonal l3 = -w^n has a positive imaginary part
    assert (values[diagonal, diagonal, 2].imag[diagonal > size / 2] > 0).all()


@pytest.mark.parametrize("size", [3, 5, 7, 9, 11, 21, 41])
def test_grover_eigenvectors_residuals_every_block(size):
    n, m = np.indices((size, size))
    h = block_matrix(grover_coin(), n, m, size)
    values = grover_eigenvalues(n, m, size)
    vectors = grover_eigenvectors(n, m, size)
    assert vectors.shape == (size, size, 4, 4)
    for a in range(size):
        for b in range(size):
            assert np.array_equal(vectors[a, b], grover_eigenvectors(a, b, size))
    assert np.abs(np.linalg.norm(vectors, axis=-2) - 1.0).max() < 1e-12
    assert np.abs(h @ vectors - vectors * values[..., None, :]).max() <= 1e-12
    gram = vectors.conj().swapaxes(-1, -2) @ vectors
    assert np.abs(gram - np.eye(4)).max() <= 1e-12


@pytest.mark.parametrize(
    "call",
    [
        lambda size: grover_eigenvectors(1, 2, size),
        lambda size: SpectralDecomposition.build(grover_coin(), size),
        lambda size: origin_coefficients(grover_coin(), InitialSpec.pure("R"), size),
        lambda size: origin_eigenvalue_amplitudes(a1_coin(), InitialSpec.pure("R"), size),
        lambda size: exact_time_average(grover_coin(), InitialSpec.pure("R"), size),
    ],
    ids=["grover_eigenvectors", "build", "origin_coefficients", "amplitudes", "exact"],
)
@pytest.mark.parametrize("size", [1, 4, 6])
def test_spectral_paths_reject_even_or_small_sizes(call, size):
    with pytest.raises(ValueError, match="odd integer >= 3"):
        call(size)


def test_diagonal_block_fixed_vectors():
    vectors = grover_eigenvectors(2, 2, 5)
    v3 = vectors[:, 2] * np.sqrt(2)
    v4 = vectors[:, 3] * np.sqrt(2)
    assert np.abs(v3 - np.array([0, -1, 0, 1])).max() < 1e-12
    assert np.abs(v4 - np.array([-1, 0, 1, 0])).max() < 1e-12


def test_axis_block_special_vector():
    # (-1,1,0,0)/sqrt(2) = (e_2 - e_1)/sqrt(2) spans the -1 eigenspace of
    # the block whose R/L phases are trivial, i.e. (n, m) = (0, k); its
    # (R,L)<->(U,D) mirror handles (k, 0).
    v = np.array([-1, 1, 0, 0]) / np.sqrt(2)
    h = block_matrix(grover_coin(), 0, 1, 5)
    assert np.linalg.norm(h @ v + v) < 1e-12
    assert np.abs(grover_eigenvectors(0, 1, 5)[:, 0] * np.sqrt(2) - v * np.sqrt(2)).max() < 1e-12
    mirrored = np.array([0, 0, 1, -1]) / np.sqrt(2)
    h = block_matrix(grover_coin(), 1, 0, 5)
    assert np.linalg.norm(h @ mirrored + mirrored) < 1e-12


def test_projectors_match_numeric_in_degenerate_subspace():
    # individual eigenvectors are only fixed up to unitary mixing inside a
    # degenerate eigenvalue; the projector is the invariant object
    eigenvalues, eigenvectors = build_block(grover_coin(), 0, 0, 5)
    closed = grover_eigenvectors(0, 0, 5)
    values = grover_eigenvalues(0, 0, 5)
    for target in (-1.0, 1.0):
        closed_cols = closed[:, np.abs(values - target) < 1e-9]
        p_closed = closed_cols @ closed_cols.conj().T
        numeric_cols = eigenvectors[:, np.abs(eigenvalues - target) < 1e-9]
        p_numeric = numeric_cols @ numeric_cols.conj().T
        assert np.abs(p_closed - p_numeric).max() < 1e-10


#: A row of the grover class table: the k-th closed-form eigenvalue of an orbit's
#: representative block, with its member blocks and their summed origin projections.
GroverClass = namedtuple(
    "GroverClass", ["representative", "k", "members", "multiplicity", "eigenvalue", "weights"]
)


def grover_representatives(size):
    """Representatives of grover's degeneracy orbits but (0, 0): axis, diagonal, generic."""
    half = (size - 1) // 2
    return (
        [(n, 0) for n in range(1, half + 1)]
        + [(n, n) for n in range(1, size)]
        + [(n, m) for n in range(1, half) for m in range(n + 1, half + 1)]
    )


def orbit(n, m, size):
    """The blocks of the grover degeneracy orbit whose representative is (n, m)."""
    if m == 0:
        return {(n, 0), (0, n), (size - n, 0), (0, size - n)}
    if n == m:
        return {(n, n), (n, size - n)}
    pairs = {(p, q) for p in (n, size - n) for q in (m, size - m)}
    return pairs | {(q, p) for p, q in pairs}


def reference_grover_classes(spec, size):
    """
    The grover class table from explicit orbit sets and a per-member loop
    over `build_block`, one `GroverClass` per orbit and k, block (0, 0) left out.
    """
    blocks = {}
    rows = []
    for rep in grover_representatives(size):
        members = tuple(sorted(orbit(*rep, size)))
        for k, value in enumerate(grover_eigenvalues(*rep, size), start=1):
            total = np.zeros(4, dtype=complex)
            for member in members:
                if member not in blocks:
                    blocks[member] = build_block(grover_coin(), *member, size)
                eigenvalues, eigenvectors = blocks[member]
                match = np.abs(eigenvalues - value) <= DEGENERACY_TOL
                assert match.any()
                vectors = eigenvectors[:, match]
                total += vectors @ (vectors.conj().T @ spec.weights)
            rows.append(GroverClass(rep, k, members, len(members), complex(value), total))
    return rows


def _class_holding(size, block, k=3):
    """The row of the reference class table whose orbit holds `block`, for eigenvalue k."""
    for cls in reference_grover_classes(InitialSpec.pure("R"), size):
        if cls.k == k and block in cls.members:
            return cls
    raise AssertionError(f"no class k={k} holds block {block}")


def test_degeneracy_class_axis():
    cls = _class_holding(5, (1, 0))
    assert cls.representative == (1, 0)
    assert set(cls.members) == {(1, 0), (0, 1), (4, 0), (0, 4)}
    assert len(cls.members) == cls.multiplicity == 4


def test_degeneracy_class_diagonal():
    # the antidiagonal block (n, N - n) shares the two-member class of (n, n)
    cls = _class_holding(5, (2, 3))
    assert cls.representative == (2, 2)
    assert set(cls.members) == {(2, 2), (2, 3)}


def test_degeneracy_class_generic():
    cls = _class_holding(7, (1, 2))
    assert set(cls.members) == {
        (1, 2), (1, 5), (6, 2), (6, 5), (2, 1), (2, 6), (5, 1), (5, 6)
    }
    assert len(cls.members) == cls.multiplicity == 8


def test_degeneracy_class_zero_first_momentum_uses_axis_orbit():
    cls = _class_holding(5, (0, 2))
    assert cls.representative == (2, 0)
    assert set(cls.members) == {(2, 0), (0, 2), (3, 0), (0, 3)}


def test_degeneracy_class_members_share_cosine_sum():
    size = 9
    xi = lambda j: 2 * np.pi * j / size
    for cls in reference_grover_classes(InitialSpec.pure("R"), size):
        reference = np.cos(xi(cls.representative[0])) + np.cos(xi(cls.representative[1]))
        for n, m in cls.members:
            assert abs(np.cos(xi(n)) + np.cos(xi(m)) - reference) < 1e-12


def test_degeneracy_class_eigenvalue_field():
    cls = _class_holding(5, (2, 2), k=3)
    w = np.exp(2j * np.pi / 5)
    assert cls.eigenvalue == pytest.approx(-(w ** 2))


@pytest.mark.parametrize("size,minus,plus", [(5, 27, 25), (7, 51, 49)])
def test_spectral_decomposition_census(size, minus, plus):
    decomposition = SpectralDecomposition.build(grover_coin(), size)
    assert sum(c.multiplicity for c in decomposition.clusters) == 4 * size ** 2
    by_value = {
        round(c.value.real, 6) + 1j * round(c.value.imag, 6): c.multiplicity
        for c in decomposition.clusters
    }
    assert by_value[complex(-1, 0)] == minus
    assert by_value[complex(1, 0)] == plus


def test_spectral_decomposition_a1_has_no_global_cluster():
    decomposition = SpectralDecomposition.build(a1_coin(), 5)
    assert decomposition.max_multiplicity() < 25
    assert decomposition.common_eigenvalues() == ()


def test_spectral_decomposition_common_eigenvalues_grover():
    decomposition = SpectralDecomposition.build(grover_coin(), 5)
    common = decomposition.common_eigenvalues()
    assert multiset_gap(common, [-1.0, 1.0]) < 1e-12


def test_spectrum_json_sorted_by_multiplicity(tmp_path):
    decomposition = SpectralDecomposition.build(grover_coin(), 5)
    path = tmp_path / "spectrum.json"
    decomposition.write_json(path)
    payload = json.loads(path.read_text())
    assert payload["coin"] == "grover"
    assert payload["N"] == 5
    mults = [c["multiplicity"] for c in payload["clusters"]]
    assert mults == sorted(mults, reverse=True)
    assert mults[0] == 27 and mults[1] == 25


def test_evolve_spectral_t0_reproduces_initial():
    spec = InitialSpec(0.5, 0.5j, -0.5, 0.5j)
    state = origin_superposition(5, spec)
    back = evolve_spectral(state, a2_coin(), 0)
    assert np.abs(back.amplitudes - state.amplitudes).max() < 1e-12


def test_evolve_spectral_matches_direct_grover():
    initial = pure_state(5, "R")
    direct = evolve(initial, grover_coin(), 10)
    spectral = evolve_spectral(initial, grover_coin(), 10)
    assert np.abs(direct.amplitudes - spectral.amplitudes).max() < 1e-10
    assert spectral.t == 10


def test_evolve_spectral_matches_direct_a2():
    initial = pure_state(7, "R")
    direct = evolve(initial, a2_coin(), 20)
    spectral = evolve_spectral(initial, a2_coin(), 20)
    assert np.abs(direct.amplitudes - spectral.amplitudes).max() < 1e-10


def test_evolve_spectral_handles_delocalized_input():
    # start from an already-evolved state rather than a point source
    initial = evolve(pure_state(5, "L"), a1_coin(), 3)
    direct = evolve(initial, a1_coin(), 7)
    spectral = evolve_spectral(initial, a1_coin(), 7)
    assert np.abs(direct.amplitudes - spectral.amplitudes).max() < 1e-10


# ---------------------------------------------------------------------------
# Origin-expansion coefficient tables
# ---------------------------------------------------------------------------

def _class_by_label(classes, representative, k):
    for cls in classes:
        if cls.representative == representative and cls.k == k:
            return cls
    raise AssertionError(f"class {representative}, k={k} not found")


@pytest.mark.parametrize("size", [5, 7])
def test_grover_pure_r_coefficient_table(size):
    expansion = origin_coefficients(grover_coin(), InitialSpec.pure("R"), size)
    assert expansion.c_plus[0] == pytest.approx(size ** 2 / 4, abs=1e-9)
    assert expansion.c_minus[0] == pytest.approx(0.5 + size ** 2 / 4, abs=1e-9)
    classes = reference_grover_classes(InitialSpec.pure("R"), size)
    half = (size - 1) // 2
    for n in range(1, half + 1):
        for k in (1, 2, 3, 4):
            coeff = _class_by_label(classes, (n, 0), k).weights[0]
            assert coeff == pytest.approx(1.0, abs=1e-9)
    for n in range(1, size):
        expected = {1: 0.5, 2: 0.5, 3: 0.0, 4: 1.0}
        for k, value in expected.items():
            coeff = _class_by_label(classes, (n, n), k).weights[0]
            assert coeff == pytest.approx(value, abs=1e-9)
    for n in range(1, half):
        for m in range(n + 1, half + 1):
            for k in (1, 2, 3, 4):
                coeff = _class_by_label(classes, (n, m), k).weights[0]
                assert coeff == pytest.approx(2.0, abs=1e-9)


def test_grover_pure_l_coefficient_table():
    size = 7
    xi = lambda j: 2 * np.pi * j / size
    classes = reference_grover_classes(InitialSpec.pure("L"), size)
    for n in range(1, (size - 1) // 2 + 1):
        expected = -1 + 4 / (3 + np.cos(xi(n)))
        for k in (3, 4):
            coeff = _class_by_label(classes, (n, 0), k).weights[0]
            assert coeff == pytest.approx(expected, abs=1e-9)
    for n in range(1, size):
        for k in (3, 4):
            coeff = _class_by_label(classes, (n, n), k).weights[0]
            assert abs(coeff) < 1e-9
    for (n, m) in [(1, 2), (1, 3), (2, 3)]:
        cn, cm = np.cos(xi(n)), np.cos(xi(m))
        expected = 4 * (cm - cn) ** 2 / (
            6 - np.cos(2 * xi(m)) - np.cos(2 * xi(n)) - 4 * cn * cm
        )
        for k in (3, 4):
            coeff = _class_by_label(classes, (n, m), k).weights[0]
            assert coeff == pytest.approx(expected, abs=1e-9)


def test_grover_pure_l_plus_minus_aggregates():
    # closed sums for the +-1 aggregates of the pure L start, chirality R
    size = 7
    xi = lambda j: 2 * np.pi * j / size
    s_axis = sum(8 / (3 + np.cos(xi(n))) for n in range(1, (size - 1) // 2 + 1))
    s_plus = 0.0
    s_minus = 0.0
    for n in range(1, (size - 3) // 2 + 1):
        for m in range(n + 1, (size - 1) // 2 + 1):
            cn, cm = np.cos(xi(n)), np.cos(xi(m))
            s_plus += 2 * (cm + cn + 2 * cm * cn) / (2 + cm + cn)
            s_minus += 2 * (cm + cn - 2 * cm * cn) / (-2 + cm + cn)
    expansion = origin_coefficients(grover_coin(), InitialSpec.pure("L"), size)
    assert expansion.c_plus[0] == pytest.approx(
        -7 / 4 + 3 * size / 2 - s_axis + s_plus, abs=1e-9
    )
    assert expansion.c_minus[0] == pytest.approx(3 / 4 - size / 2 + s_minus, abs=1e-9)


def test_grover_pure_r_cross_chirality_coefficients():
    # generic-class +-1 coefficients seen from chiralities L and U
    size = 7
    xi = lambda j: 2 * np.pi * j / size
    classes = reference_grover_classes(InitialSpec.pure("R"), size)
    for (n, m) in [(1, 2), (2, 3)]:
        cn, cm = np.cos(xi(n)), np.cos(xi(m))
        k1 = _class_by_label(classes, (n, m), 1).weights
        k2 = _class_by_label(classes, (n, m), 2).weights
        assert k1[1] == pytest.approx(
            2 * (cm + cn - 2 * cm * cn) / (-2 + cm + cn), abs=1e-9
        )
        assert k2[1] == pytest.approx(
            2 * (cm + cn + 2 * cm * cn) / (2 + cm + cn), abs=1e-9
        )
        assert k1[2] == pytest.approx(
            8 * np.sin(xi(m) / 2) ** 2 * np.sin(xi(n) / 2) ** 2 / (2 - cm - cn),
            abs=1e-9,
        )
        assert k2[2] == pytest.approx(
            8 * np.cos(xi(m) / 2) ** 2 * np.cos(xi(n) / 2) ** 2 / (2 + cm + cn),
            abs=1e-9,
        )


@pytest.mark.parametrize("size", [3, 5, 7, 9, 21])
@pytest.mark.parametrize(
    "spec",
    [InitialSpec.pure("R"), InitialSpec.pure("L"), InitialSpec(0.5, -0.5j, 0.5, 0.5j)],
    ids=["R", "L", "custom"],
)
def test_grover_class_table_matches_per_member_reference(spec, size):
    # the reference rows and block (0, 0)'s four eigenpairs, summed by the expansion
    # cluster their eigenvalue falls in, give the expansion's weights and member counts
    expansion = origin_coefficients(grover_coin(), spec, size)
    values, vectors = build_block(grover_coin(), 0, 0, size)
    rows = [(value, 1, column * (column.conj() @ spec.weights))
            for value, column in zip(values.tolist(), vectors.T)]
    for cls in reference_grover_classes(spec, size):
        assert cls.eigenvalue == grover_eigenvalues(*cls.representative, size)[cls.k - 1]
        rows.append((cls.eigenvalue, cls.multiplicity, cls.weights))
    sums = np.zeros_like(expansion.weights)
    counts = np.zeros_like(expansion.multiplicities)
    for value, count, weights in rows:
        (cluster,) = np.flatnonzero(np.abs(expansion.eigenvalues - value) <= DEGENERACY_TOL)
        sums[cluster] += weights
        counts[cluster] += count
    assert np.abs(sums - expansion.weights).max() < 1e-12
    assert np.array_equal(counts, expansion.multiplicities)


@pytest.mark.parametrize("size", [5, 7])
def test_expansion_completeness_at_t0(size):
    spec = InitialSpec(0.5, -0.5j, 0.5, 0.5j)
    expansion = origin_coefficients(grover_coin(), spec, size)
    assert np.abs(expansion.amplitude(0) - spec.weights).max() < 1e-10


@pytest.mark.parametrize("coin", [grover_coin(), a1_coin()])
def test_expansion_reproduces_direct_evolution(coin):
    size = 5
    spec = InitialSpec.pure("R")
    expansion = origin_coefficients(coin, spec, size)
    state = origin_superposition(size, spec)
    for t in (1, 2, 5, 9):
        state = evolve(state, coin, t - state.t)
        assert np.abs(expansion.amplitude(t) - state.amplitude(0, 0)).max() < 1e-10


def test_expansion_class_multiplicities():
    # every one of the 4 N^2 eigenvalues is accounted for exactly once: four in block
    # (0, 0) and one per member of an orbit, which holds 4 blocks on the axes, 2 on the
    # diagonal and 8 elsewhere
    for size in (5, 9):
        expansion = origin_coefficients(grover_coin(), InitialSpec.pure("R"), size)
        assert sum(cls.multiplicity for cls in expansion.classes) == 4 * size ** 2
        classes = reference_grover_classes(InitialSpec.pure("R"), size)
        assert 4 + sum(cls.multiplicity for cls in classes) == 4 * size ** 2
        for cls in classes:
            n, m = cls.representative
            members = 4 if m == 0 else 2 if n == m else 8
            assert len(cls.members) == cls.multiplicity == members


def test_non_grover_expansion_unlabeled_clusters():
    expansion = origin_coefficients(a1_coin(), InitialSpec.pure("R"), 5)
    assert sum(c.multiplicity for c in expansion.classes) == 4 * 25


# ---------------------------------------------------------------------------
# Eigenvalue clustering and diagonalization work
# ---------------------------------------------------------------------------

def pairwise_components(values):
    """Reference partition: connected components of the graph |v_i - v_j| <= tol."""
    label = list(range(len(values)))
    for i in range(len(values)):
        for j in range(len(values)):
            if abs(values[i] - values[j]) <= DEGENERACY_TOL and label[i] != label[j]:
                old, new = label[j], label[i]
                label = [new if x == old else x for x in label]
    return sorted(
        sorted(i for i in range(len(values)) if label[i] == root) for root in set(label)
    )


def label_partition(labels):
    return sorted(np.flatnonzero(labels == k).tolist() for k in range(labels.max() + 1))


def test_cluster_grover_census_across_branch_cut():
    # the -1 cluster straddles the +-pi cut of the angle sort
    values = SpectralDecomposition.build(grover_coin(), 41).values.ravel()
    centres, labels = cluster_labels(values)
    assert len(centres) == 462
    counts = np.bincount(labels)
    by_value = {complex(round(v.real, 6), round(v.imag, 6)): n for v, n in zip(centres, counts)}
    assert by_value[complex(-1, 0)] == 1683
    assert by_value[complex(1, 0)] == 1681


def test_cluster_joins_values_either_side_of_branch_cut():
    angles = np.array([np.pi - 0.3 * DEGENERACY_TOL, 1.0, -np.pi + 0.3 * DEGENERACY_TOL])
    _, labels = cluster_labels(np.exp(1j * angles))
    assert labels.tolist() == [0, 1, 0]


def test_cluster_chains_close_neighbours():
    values = np.exp(1j * (1.0 + 0.6 * DEGENERACY_TOL * np.arange(3)))
    centres, labels = cluster_labels(values)
    assert len(centres) == 1
    assert labels.tolist() == [0, 0, 0]


def test_cluster_splits_separated_values():
    values = np.exp(1j * (1.0 + 2.0 * DEGENERACY_TOL * np.arange(2)))
    assert len(cluster_labels(values)[0]) == 2


def test_cluster_matches_pairwise_transitive_closure():
    rng = np.random.default_rng(5)
    centres = np.concatenate([[0.0], rng.uniform(-np.pi, np.pi, 12)])
    angles = np.concatenate(
        [centres + rng.uniform(-1.5, 1.5, size=centres.size) * DEGENERACY_TOL for _ in range(4)]
        + [np.pi + 0.7 * DEGENERACY_TOL * np.arange(-3, 4)]  # a chain across the cut
    )
    values = np.exp(1j * angles)
    assert label_partition(cluster_labels(values)[1]) == pairwise_components(values)


# Angles on a grid: cluster seats 1e-3 apart, members 0.3 tol apart, so every
# pairwise distance is at least 10% of the tolerance away from it.
planted_angles = st.lists(
    st.tuples(
        st.one_of(st.integers(-3141, 3141).map(lambda j: j * 1e-3), st.just(np.pi)),
        st.lists(st.integers(-8, 8), min_size=1, max_size=8),
    ),
    min_size=1,
    max_size=6,
).map(
    lambda seats: np.array(
        [seat + 0.3 * DEGENERACY_TOL * k for seat, steps in seats for k in steps]
    )
)


@settings(deadline=None, max_examples=60)
@given(planted_angles)
def test_cluster_labels_properties(angles):
    values = np.exp(1j * angles)
    centres, labels = cluster_labels(values)
    assert label_partition(labels) == pairwise_components(values)
    keys = [(round(c.real / DEGENERACY_TOL), c.imag) for c in centres]
    assert all(a < b for a, b in zip(keys[:-1], keys[1:]))
    for k, centre in enumerate(centres):
        assert abs(centre - values[labels == k].mean()) <= 1e-15


@given(
    st.lists(st.integers(0, 5), min_size=1, max_size=30).flatmap(
        lambda labels: st.tuples(
            st.just(np.array(labels)),
            st.lists(
                st.complex_numbers(max_magnitude=1e3, allow_nan=False),
                min_size=2 * len(labels),
                max_size=2 * len(labels),
            ).map(lambda rows: np.array(rows).reshape(-1, 2)),
        )
    )
)
def test_sum_by_label_matches_loop(case):
    labels, rows = case
    expected = np.zeros((labels.max() + 1, 2), dtype=complex)
    for label, row in zip(labels, rows):
        expected[label] += row
    assert np.array_equal(sum_by_label(labels, rows), expected)


@pytest.mark.parametrize("shape", [(), (4,), (2, 3)], ids=["values", "rows", "matrices"])
@pytest.mark.parametrize("dtype", [float, complex])
def test_sum_by_label_has_the_bits_of_add_at(shape, dtype):
    # label 2 has no rows; signed zeros, alone and among other values, sum as add.at sums them
    rng = np.random.default_rng(3)
    labels = rng.choice([0, 1, 3, 4], size=200)
    labels[:20] = 4
    rows = rng.normal(size=(200, *shape)) * 10.0 ** rng.integers(-8, 8, size=(200, *shape))
    if dtype is complex:
        rows = rows + 1j * rng.normal(size=rows.shape)
    rows[labels == 4] *= 0.0
    rows[::7] = -0.0
    expected = np.zeros((5, *shape), dtype=dtype)
    np.add.at(expected, labels, rows)
    sums = sum_by_label(labels, rows)
    assert sums.dtype == expected.dtype and sums.shape == expected.shape
    for got, want in [(sums.real, expected.real), (sums.imag, expected.imag)]:
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_predictor_clusters_the_spectrum_once(monkeypatch):
    sizes = []

    def counting(values):
        sizes.append(np.size(values))
        return cluster_labels(values)

    monkeypatch.setattr(spectral, "cluster_labels", counting)
    assert localization_predictor(grover_coin(), 9).localizing
    assert sizes.count(4 * 81) == 1
    assert max(sizes) == 4 * 81


@pytest.fixture
def linalg_counts(monkeypatch):
    counts = {"eig": 0, "eigh": 0, "solve": 0}
    eig, eigh, solve = np.linalg.eig, np.linalg.eigh, np.linalg.solve

    def counting_eig(a):
        counts["eig"] += int(np.prod(np.shape(a)[:-2]))
        return eig(a)

    def counting_eigh(a):
        counts["eigh"] += int(np.prod(np.shape(a)[:-2]))
        return eigh(a)

    def counting_solve(a, b):
        counts["solve"] += 1
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    return counts


@pytest.mark.parametrize(
    "perturb,message",
    [
        (lambda values, vectors: (values + 1e-6, vectors), "eigenpair residual"),
        (lambda values, vectors: (values, vectors * (1 + 1e-6)), "unitarity"),
    ],
    ids=["residual", "unitarity"],
)
def test_kernel_checks_raise_spectral_error(monkeypatch, perturb, message):
    kernel = spectral._unitary_eigh
    monkeypatch.setattr(spectral, "_unitary_eigh", lambda h: perturb(*kernel(h)))
    with pytest.raises(SpectralError, match=rf"{message} .* in block \(\d+, \d+\)"):
        SpectralDecomposition.build(a2_coin(), 5)


@pytest.mark.parametrize("coin", [haar_coin(), a1_coin()], ids=["haar", "a1"])
def test_a_failure_in_a_later_chunk_names_its_block(monkeypatch, coin):
    # plant an eigenpair residual in the last block diagonalized, in the last of several
    # chunks: the error names that block by its flat index, with no other chunk touched
    size = 2 * math.isqrt(spectral.EIGH_CHUNK) + 1
    via = spectral._orbits(spectral._coin_symmetries(coin), size)[1]
    n, m = divmod(int(np.flatnonzero(via == 0)[-1]), size)
    planted = block_matrix(coin, n, m, size)
    kernel = spectral._unitary_eigh
    chunks = []

    def kernel_with_a_fault(h):
        values, vectors = kernel(h)
        chunks.append(len(h))
        values[(h == planted).all(axis=(-2, -1))] += 1e-6
        return values, vectors

    monkeypatch.setattr(spectral, "_unitary_eigh", kernel_with_a_fault)
    with pytest.raises(SpectralError, match=rf"eigenpair residual .* in block \({n}, {m}\) "):
        SpectralDecomposition.build(coin, size)
    assert len(chunks) > 1 and chunks[0] == spectral.EIGH_CHUNK


def test_a_solver_failure_names_its_chunk(monkeypatch):
    def failing(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    size = 2 * math.isqrt(spectral.EIGH_CHUNK) + 1
    n, m = divmod(spectral.EIGH_CHUNK - 1, size)
    monkeypatch.setattr(spectral, "_unitary_eigh", failing)
    with pytest.raises(SpectralError, match=rf"blocks \(0, 0\) to \({n}, {m}\): Eigenvalues"):
        SpectralDecomposition.build(haar_coin(), size)


def test_exact_routes_hold_one_chunk_of_kernel_temporaries():
    # a coin with no symmetry diagonalizes all N^2 blocks; the kernel's temporaries and
    # checks live one chunk at a time, so the peaks stay near the full-grid results
    # (with the whole stack's temporaries alive they were about 1370 and 1850 N^2 bytes)
    coin, size = haar_coin(), 101
    for call, bound in (
        (lambda: SpectralDecomposition.build(coin, size), 650),
        (lambda: exact_time_average(coin, InitialSpec.pure("R"), size, "odd"), 1300),
        # no per-cluster object: the arrays alone (about 2980 N^2 bytes with one per cluster)
        (lambda: origin_coefficients(coin, InitialSpec.pure("R"), size), 1300),
    ):
        call()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * size ** 2


def test_folded_build_writes_representatives_into_the_grid():
    # the representatives' eigensystems are solved into the grid arrays, with no
    # representative-sized copies beside them (678 N^2 bytes with those copies)
    coin, size = a1_coin(), 101
    SpectralDecomposition.build(coin, size)
    tracemalloc.start()
    try:
        SpectralDecomposition.build(coin, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 640 * size ** 2


@pytest.mark.parametrize(
    "coin,matrices", list(zip(FOLD_COINS, [15, 25, 25, 25, 41, 81, 15])), ids=FOLD_IDS
)
def test_origin_coefficients_diagonalize_each_block_once(coin, matrices, linalg_counts):
    # one block per symmetry orbit at N=9: (N+1)(N+3)/8 for the full lattice group,
    # ((N+1)/2)^2 for four elements, (N^2+1)/2 for k <-> -k alone, N^2 for none
    origin_coefficients(coin, InitialSpec.pure("R"), 9)
    assert linalg_counts["eigh"] == matrices
    assert linalg_counts["eig"] == linalg_counts["solve"] == 0


def unitary_with_eigenvalues(values, seed=7):
    """A unitary Q diag(values) Q^H with a Haar-random eigenbasis Q."""
    q = haar_coin(seed).entries
    return q @ np.diag(values) @ q.conj().T


def assert_eigensystem(h, values, vectors, tol=1e-13):
    residual = h @ vectors - vectors * values[..., None, :]
    unitarity = vectors.conj().swapaxes(-1, -2) @ vectors - np.eye(4)
    assert np.abs(residual).max() <= tol
    assert np.abs(unitarity).max() <= tol


@pytest.mark.parametrize(
    "coin,expected",
    [(grover_coin(), [-1, -1, -1, 1]), (a2_coin(), [-1, -1, 1, 1]),
     (symmetric_family(0.3), [-1, -1, -1, 1])],
    ids=["grover", "a2", "a4:0.3"],
)
def test_kernel_orthonormalizes_exactly_degenerate_blocks(coin, expected):
    # block (0, 0) is the coin itself; eigh's columns span each repeated eigenspace
    # orthonormally, with no QR pass
    _, values, vectors = (a[0] for a in next(spectral._eigensystems(coin, [0], 9)))
    assert np.abs(values - expected).max() < 1e-14
    # the copies of a repeated eigenvalue are replaced by their mean
    assert len(set(values.tolist())) == 2
    assert_eigensystem(coin.entries, values, vectors, tol=1e-14)


@pytest.mark.parametrize("pole", range(8))
@pytest.mark.parametrize("others", ["random", "poles"])
def test_kernel_with_an_eigenvalue_on_a_candidate_pole(pole, others):
    # the pole picked is one where det(z - H) is largest, never the one an eigenvalue
    # sits on; with four eigenvalues on alternate poles it lies pi/4 from two of them
    poles = spectral._POLES[:, 0]
    if others == "random":
        rest = np.exp(1j * np.array([2.0, -2.5, 0.1]))
    else:
        rest = poles[[(pole + k) % 8 for k in (2, 4, 6)]]
    values = np.concatenate([poles[pole : pole + 1], rest])
    h = unitary_with_eigenvalues(values)
    got, vectors = (a[0] for a in spectral._unitary_eigh(h[None]))
    assert_eigensystem(h, got, vectors)
    assert multiset_gap(got, values) < 1e-13


@pytest.mark.parametrize(
    "gap,distinct", [(1e-13, 3), (2e-9, 4), (6e-10, None)], ids=["merged", "split", "between"]
)
def test_kernel_on_an_in_block_pair(gap, distinct):
    # block (0, 0) is the coin itself.  Pairs within DEGENERACY_TOL merge into their mean;
    # 6e-10 apart the mean misses both by 3e-10 > RESIDUAL_TOL, and the checks refuse it.
    # Just past the tolerance the pair stays split, with orthonormal columns
    values = np.exp(1j * np.array([0.7, 0.7 + gap, 2.5, -2.0]))
    coin = custom_coin(unitary_with_eigenvalues(values))
    if distinct is None:
        with pytest.raises(SpectralError, match=r"eigenpair residual .* in block \(0, 0\)"):
            next(spectral._eigensystems(coin, [0], 9))
        return
    _, got, vectors = (a[0] for a in next(spectral._eigensystems(coin, [0], 9)))
    assert_eigensystem(coin.entries, got, vectors, tol=1e-12)
    assert len(cluster_labels(got)[0]) == distinct
    assert multiset_gap(got, values) <= gap


@pytest.mark.parametrize("coin", FOLD_COINS, ids=FOLD_IDS)
def test_kernel_cluster_multiplicities_match_eig(coin):
    # the independent reference: LAPACK's general eigensolver on the full grid, up to
    # N=41; `test_half_grid_eigensystems_match_full_grid_eig` covers N = 3..21
    for size in range(23, 42, 2):
        n, m = np.indices((size, size))
        expected = cluster_labels(np.linalg.eigvals(block_matrix(coin, n, m, size)).ravel())
        clusters = SpectralDecomposition.build(coin, size).clusters
        assert [c.multiplicity for c in clusters] == np.bincount(expected[1]).tolist()
        assert np.abs(np.array([c.value for c in clusters]) - expected[0]).max() < 1e-12


@pytest.mark.parametrize("scale,accepted", [(1e-11, True), (1e-10, True), (4e-10, False)])
def test_near_unitary_custom_coin(scale, accepted):
    # a Haar coin plus a perturbation: unitarity residuals 1.6e-11, 1.6e-10 and 6.2e-10, all
    # inside CUSTOM_UNITARITY_TOL.  The Rayleigh quotients absorb the first two (LAPACK's
    # general eigensolver, with its columns checked for unitarity, refused residuals from
    # 3.1e-11 up); the third leaves an eigenpair residual over RESIDUAL_TOL, and the error
    # names the block
    rng = np.random.default_rng(12)
    perturbation = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    coin = custom_coin(haar_coin().entries + scale * perturbation / np.abs(perturbation).max())
    if accepted:
        assert len(SpectralDecomposition.build(coin, 21).clusters) == 4 * 21 ** 2
    else:
        with pytest.raises(SpectralError, match=r"eigenpair residual .* in block \(\d+, \d+\)"):
            SpectralDecomposition.build(coin, 21)


def spectral_projectors(values, vectors):
    """Per block, the projector onto the eigenspace of each eigenvalue, (..., 4, 4, 4)."""
    close = np.abs(values[..., :, None] - values[..., None, :]) <= DEGENERACY_TOL
    return np.einsum("...ik,...lk,...kj->...lij", vectors, close, np.linalg.inv(vectors))


@pytest.mark.parametrize("coin", FOLD_COINS, ids=FOLD_IDS)
@pytest.mark.parametrize("size", range(3, 22, 2))
def test_half_grid_eigensystems_match_full_grid_eig(coin, size):
    values, vectors = spectral._grid_eigensystems(coin, size)
    # filled blocks keep the order of `_eigensystems`, conjugated ones re-sorted
    assert np.array_equal(spectral._sorted(values, vectors)[0], values)
    n, m = np.indices((size, size))
    expected, columns = np.linalg.eig(block_matrix(coin, n, m, size))
    # match each value to its nearest reference value, block by block
    nearest = np.argmin(np.abs(values[..., :, None] - expected[..., None, :]), axis=-1)
    matched = np.take_along_axis(expected, nearest, axis=-1)
    assert np.abs(values - matched).max() < 1e-12
    projectors = spectral_projectors(expected, columns)
    matched_projectors = np.take_along_axis(projectors, nearest[..., None, None], axis=-3)
    assert np.abs(spectral_projectors(values, vectors) - matched_projectors).max() < 1e-12
    # the clustered spectrum has the multiplicities of the full-grid reference
    centres, labels = cluster_labels(expected.ravel())
    clusters = SpectralDecomposition.build(coin, size).clusters
    assert [c.multiplicity for c in clusters] == np.bincount(labels).tolist()
    assert np.abs(np.array([c.value for c in clusters]) - centres).max() < 1e-12


@pytest.mark.parametrize("coin", FOLD_COINS, ids=FOLD_IDS)
@pytest.mark.parametrize("size", [3, 9, 21, 51])
def test_folded_grid_passes_the_kernel_checks_on_every_block(coin, size):
    values, vectors = spectral._grid_eigensystems(coin, size)
    n, m = np.indices((size, size))
    assert_eigensystem(block_matrix(coin, n, m, size), values, vectors, spectral.RESIDUAL_TOL)


@pytest.mark.parametrize(
    "coin,maps,phases",
    [
        (grover_coin(), [(0, 1, 1), (0, 1, -1), (0, -1, 1), (0, -1, -1),
                         (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)], None),
        (complex_grover(), [(0, 1, 1), (0, 1, -1), (0, -1, 1), (0, -1, -1),
                            (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)], None),
        (a2_coin(), [(0, 1, 1), (0, 1, -1), (0, -1, 1), (0, -1, -1)], None),
        (symmetric_family(0.3), [(0, 1, 1), (0, 1, -1), (0, -1, 1), (0, -1, -1)], None),
        (a1_coin(), [(0, 1, 1), (0, -1, 1)], [[1, 1, 1, 1], [1, 1, -1, 1]]),
        (orthogonal_coin(), [(0, 1, 1)], [[1, 1, 1, 1]]),
        (haar_coin(), [(0, 1, 1)], [[1, 1, 1, 1]]),
    ],
    ids=["grover", "complex-grover", "a2", "a4:0.3", "a1", "orthogonal", "haar"],
)
def test_coin_symmetries_are_the_expected_groups(coin, maps, phases):
    elements = spectral._coin_symmetries(coin)
    unitary = [(g, phi) for g, phi, conjugates in elements if not conjugates]
    assert [spectral._LATTICE_MAPS[g] for g, _ in unitary] == maps
    if phases is not None:
        assert np.array_equal([phi for _, phi in unitary], phases)
    # a real coin adds k -> -g k with conjugation, unless -1 is a lattice map already
    conjugating = [(g, phi) for g, phi, conjugates in elements if conjugates]
    expected = unitary if coin.is_real and (0, -1, -1) not in maps else []
    assert len(conjugating) == len(expected)
    assert all(g == h and np.array_equal(phi, psi)
               for (g, phi), (h, psi) in zip(conjugating, expected))
    # each map permutes the phases by pi_g, and is an exact similarity of the blocks:
    # H(g k) = S H(k) S^-1 with S = P_g diag(phi)
    size = 21
    n, m = np.indices((size, size))
    blocks = block_matrix(coin, n, m, size)
    for g, phi in unitary:
        swap, sn, sm = spectral._LATTICE_MAPS[g]
        x, y = (m, n) if swap else (n, m)
        pi = np.argsort(spectral._MAP_INVERSES[g])
        assert np.array_equal(momentum_phases(sn * x, sm * y, size),
                              momentum_phases(n, m, size)[..., pi])
        similar = (phi[:, None] * blocks * phi.conj())[..., pi[:, None], pi]
        assert np.array_equal(block_matrix(coin, sn * x, sm * y, size), similar)


@pytest.mark.parametrize("size", [3, 5, 9, 21, 31])
def test_grover_fold_orbits_are_the_degeneracy_orbits(size):
    # two independent constructions of grover's orbits: the fold's group search and the
    # closed-form orbit table.  The table splits each diagonal D4 orbit in two, {(a, a),
    # (a, -a)} and {(-a, -a), (-a, a)}, because l3 and l4 trade places under k -> -k; join
    # every table orbit with its image under -1 and the two partitions are equal.
    rep = spectral._orbits(spectral._coin_symmetries(grover_coin()), size)[0]
    labels = np.full((size, size), -1)
    labels[0, 0] = 0
    for label, representative in enumerate(grover_representatives(size), 1):
        for block in orbit(*representative, size):
            assert labels[block] == -1
            labels[block] = label
    labels = labels.ravel()
    assert (labels >= 0).all()
    n, m = np.divmod(np.arange(size * size), size)
    mirrored = labels[(-n % size) * size + (-m % size)]
    joined = np.minimum(labels, mirrored)

    def blocks(partition):
        return {frozenset(np.flatnonzero(partition == p).tolist()) for p in np.unique(partition)}

    assert blocks(rep) == blocks(joined)
    assert len(blocks(rep)) == (size + 1) * (size + 3) // 8
    # -1 joins two table orbits exactly on the diagonals
    diagonal = (n == m) | (n == -m % size)
    assert np.array_equal(labels != mirrored, diagonal & (n > 0))


@pytest.mark.parametrize(
    "coin", [grover_coin(), symmetric_family(0.3), haar_coin()], ids=["grover", "a4:0.3", "haar"]
)
@pytest.mark.parametrize("size", [9, 21])
def test_evolve_spectral_keeps_norm_over_a_million_steps(coin, size):
    # the unimodular phase table keeps the drift inside check_norm's limit
    state = evolve_spectral(pure_state(size, "R"), coin, 10 ** 6)
    assert state.t == 10 ** 6
    check_norm(state.amplitudes, 1.0, coin, 10 ** 6)


@pytest.mark.parametrize("size", [9, 21])
def test_evolve_spectral_norm_guard_allows_rounding_that_grows_with_t(size):
    # the drift grows linearly in t (4.8e-9 at N=9, t=1e8), past NORM_TOL but inside the guard
    state = evolve_spectral(pure_state(size, "R"), grover_coin(), 10 ** 8)
    assert state.t == 10 ** 8
    with pytest.raises(ConsistencyError, match="norm drifted"):
        check_norm(state.amplitudes, 1.0, grover_coin(), 10 ** 8)
    # once rounding blows the powers up (norm^2 ~ 1e59 at N=9), the guard raises
    with pytest.raises(ConsistencyError, match="norm drifted"):
        evolve_spectral(pure_state(size, "R"), grover_coin(), 10 ** 18)


@pytest.mark.parametrize("t", [20, 5000])
def test_evolve_spectral_haar_coin_without_solve(linalg_counts, t):
    coin = haar_coin()
    initial = pure_state(9, "R")
    spectral = evolve_spectral(initial, coin, t)
    assert linalg_counts["eig"] == linalg_counts["eigh"] == 0
    assert linalg_counts["solve"] == 0
    assert np.abs(spectral.amplitudes - evolve(initial, coin, t).amplitudes).max() < 1e-12


@settings(deadline=None, max_examples=40)
@given(
    st.integers(0, 2 ** 32 - 1),
    st.sampled_from([3, 5, 7, 9]).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, 3 * n))),
)
def test_evolve_spectral_matches_evolve_for_random_coin_and_state(seed, case):
    size, t = case
    coin = haar_coin(seed)
    rng = np.random.default_rng([seed, 1])
    amplitudes = rng.normal(size=(size, size, 4)) + 1j * rng.normal(size=(size, size, 4))
    initial = WalkState(amplitudes / np.linalg.norm(amplitudes))
    spectral = evolve_spectral(initial, coin, t)
    assert np.abs(spectral.amplitudes - evolve(initial, coin, t).amplitudes).max() < 1e-12


@pytest.mark.parametrize(
    "coin", [grover_coin(), a1_coin(), haar_coin()], ids=["grover", "a1", "haar"]
)
@pytest.mark.parametrize("size", [51, 61])
def test_evolve_spectral_matches_evolve_across_chunks(coin, size):
    # two and three chunks, the last one ragged
    assert size ** 2 > spectral.CHUNK_BLOCKS and size ** 2 % spectral.CHUNK_BLOCKS
    rng = np.random.default_rng(size)
    amplitudes = rng.normal(size=(size, size, 4)) + 1j * rng.normal(size=(size, size, 4))
    initial = WalkState(amplitudes / np.linalg.norm(amplitudes))
    for t in (0, 1, 2, 31, 32, 3 * size):
        spectral_state = evolve_spectral(initial, coin, t)
        assert spectral_state.t == t
        assert np.abs(spectral_state.amplitudes - evolve(initial, coin, t).amplitudes).max() < 1e-12


def cluster_sequences(decomposition):
    """The (value, multiplicity) sequence of `clusters` and of the JSON payload."""
    payload = decomposition.to_payload()["clusters"]
    return (
        [(c.value, c.multiplicity) for c in decomposition.clusters],
        [(complex(*c["value"]), c["multiplicity"]) for c in payload],
    )


@pytest.mark.parametrize(
    "coin",
    [grover_coin(), a1_coin(), a2_coin(), symmetric_family(0.3), haar_coin(101),
     custom_coin(a1_coin().entries, label='say "hi" \\ caf\u00e9\n  "clusters": 0,\n')],
    ids=["grover", "a1", "a2", "a4:0.3", "haar-101", "escaped-label"],
)
@pytest.mark.parametrize("size", [9, 21])
def test_to_json_equals_json_dumps_of_payload(coin, size):
    decomposition = SpectralDecomposition.build(coin, size)
    want = json.dumps(decomposition.to_payload(), indent=2, sort_keys=True) + "\n"
    assert decomposition.to_json() == want


def test_block_eigenvalue_order_ignores_last_bit_of_real_part():
    # grover's l3, l4 share their real part in theory: l3 (Im < 0) comes first
    values = SpectralDecomposition.build(grover_coin(), 21).values
    rounded = np.round(values.real / DEGENERACY_TOL)
    tied = rounded[..., :, None] == rounded[..., None, :]
    later = np.triu(np.ones((4, 4), dtype=bool), k=1)
    decreasing = values.imag[..., :, None] > values.imag[..., None, :]
    assert not (tied & later & decreasing).any()


@pytest.mark.parametrize("coin", [grover_coin(), a1_coin()], ids=["grover", "a1"])
def test_cluster_order_survives_last_bit_jitter(monkeypatch, coin):
    # conjugate pairs agree in real part; roundoff must not decide their order
    reference = SpectralDecomposition.build(coin, 21)
    rng = np.random.default_rng(17)
    eigensystems = spectral._eigensystems

    def jittered(*args):
        for blocks, values, vectors in eigensystems(*args):
            jitter = np.exp(1j * rng.choice([-4e-16, 4e-16], size=values.shape))
            yield blocks, values * jitter, vectors

    monkeypatch.setattr(spectral, "_eigensystems", jittered)
    moved = SpectralDecomposition.build(coin, 21)
    for before, after in zip(cluster_sequences(reference), cluster_sequences(moved)):
        assert [m for _, m in before] == [m for _, m in after]
        assert max(abs(a - b) for (a, _), (b, _) in zip(before, after)) < 1e-12


EXPANSION_COINS = [grover_coin(), a1_coin(), a2_coin(), symmetric_family(0.3), haar_coin()]
EXPANSION_IDS = ["grover", "a1", "a2", "a4:0.3", "haar"]


@pytest.mark.parametrize("coin", EXPANSION_COINS, ids=EXPANSION_IDS)
def test_origin_eigenvalue_amplitudes_are_the_merged_expansion(coin):
    spec = InitialSpec(0.5, 0.5j, -0.5, 0.5)
    pairs = origin_eigenvalue_amplitudes(coin, spec, 9)
    merged = origin_coefficients(coin, spec, 9).merged
    assert len(pairs) == len(merged)
    for (value, amp), (expected_value, expected_amp) in zip(pairs, merged):
        assert value == expected_value and np.array_equal(amp, expected_amp)


@pytest.mark.parametrize("size", [9, 21])
@pytest.mark.parametrize("parity", ["all", "even", "odd"])
@pytest.mark.parametrize("coin", EXPANSION_COINS, ids=EXPANSION_IDS)
def test_exact_average_equals_the_pair_formula_bit_for_bit(coin, parity, size):
    # the average from the (eigenvalue, amplitude) pairs of the merged expansion
    spec = InitialSpec(0.5, 0.5j, -0.5, 0.5)
    merged = origin_eigenvalue_amplitudes(coin, spec, size)
    values = np.array([value for value, _ in merged])
    amps = np.array([amp for _, amp in merged])
    if parity != "all":
        if parity == "odd":
            amps = amps * values[:, None]
        amps = sum_by_label(cluster_labels(values ** 2)[1], amps)
    expected = (np.abs(amps) ** 2).sum(axis=0)
    report = exact_time_average(coin, spec, size, parity=parity)
    assert report.per_chirality == tuple(expected.tolist())


@pytest.mark.parametrize("parity,sign", [("even", 1.0), ("odd", -1.0)])
@pytest.mark.parametrize(
    "coin", [haar_coin(), a1_coin(), grover_coin()], ids=["haar", "a1", "grover"]
)
def test_parity_average_matches_pairwise_pairing(coin, parity, sign):
    # brute force: pair each eigenvalue l with a -l partner, |A(l) +- A(-l)|^2;
    # the Haar spectrum has no such pairs, a1 and grover have many
    spec = InitialSpec(0.5, 0.5j, -0.5, 0.5)
    merged = origin_eigenvalue_amplitudes(coin, spec, 9)
    used = [False] * len(merged)
    expected = np.zeros(4)
    for i, (value, amp) in enumerate(merged):
        if used[i]:
            continue
        used[i] = True
        total = amp
        for j, (other, partner) in enumerate(merged):
            if not used[j] and abs(other + value) <= DEGENERACY_TOL:
                used[j] = True
                total = amp + sign * partner
                break
        expected += np.abs(total) ** 2
    report = exact_time_average(coin, spec, 9, parity=parity)
    assert np.abs(np.array(report.per_chirality) - expected).max() < 1e-12


@pytest.mark.parametrize("size", [9, 21])
@pytest.mark.parametrize(
    "coin", [grover_coin(), a1_coin(), haar_coin()], ids=["grover", "a1", "haar"]
)
def test_cluster_objects_equal_a_per_value_reference(coin, size):
    # the objects `clusters`, `merged` and `classes` build on access, against the
    # per-cluster tables summed one eigenvalue at a time from the same eigensystems
    spec = InitialSpec(0.5, 0.5j, -0.5, 0.5)
    values, terms = spectral._origin_terms(coin, spec.weights, size)
    centres, labels = cluster_labels(values)
    counts = [0] * len(centres)
    sums = np.zeros((len(centres), 4), dtype=complex)
    for label, term in zip(labels.tolist(), terms):
        counts[label] += 1
        sums[label] += term
    clusters = SpectralDecomposition.build(coin, size).clusters
    assert [(c.value, c.multiplicity) for c in clusters] == list(zip(centres.tolist(), counts))
    expansion = origin_coefficients(coin, spec, size)
    assert [value for value, _ in expansion.merged] == centres.tolist()
    for (_, amp), total in zip(expansion.merged, sums):
        assert np.array_equal(amp, total / size ** 2)
    assert len(expansion.classes) == len(centres)
    for cls, value, total, count in zip(expansion.classes, centres.tolist(), sums, counts):
        assert cls.eigenvalue == value and np.array_equal(cls.weights, total)
        assert cls.multiplicity == count
