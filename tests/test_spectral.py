import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwalk2d import spectral
from qwalk2d import (
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
def test_momentum_phases_bit_identical_to_power_formula(size):
    w = np.exp(2j * np.pi / size)
    n, m = np.indices((size, size))
    formula = np.stack([w ** -n, w ** n, w ** -m, w ** m], axis=-1).view(np.uint64)
    assert np.array_equal(momentum_phases(n, m, size).view(np.uint64), formula)
    # out-of-range momenta are reduced mod N before the table lookup
    shifted = momentum_phases(n - size, m + 2 * size, size)
    assert np.array_equal(shifted.view(np.uint64), formula)
    assert np.array_equal(momentum_phases(1, -1, size).view(np.uint64), formula[1, size - 1])


@pytest.mark.parametrize(
    "coin", [grover_coin(), a1_coin(), a2_coin(), symmetric_family(0.7)]
)
def test_block_eigenvalues_unimodular(coin):
    for n in range(5):
        for m in range(5):
            block = build_block(coin, n, m, 5)
            assert np.abs(np.abs(block.eigenvalues) - 1.0).max() < 1e-12


def test_block_eigen_residuals():
    coin = a2_coin()
    for n in range(5):
        for m in range(5):
            block = build_block(coin, n, m, 5)
            residual = np.abs(
                block.matrix @ block.eigenvectors
                - block.eigenvectors * block.eigenvalues[None, :]
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
    w = np.exp(2j * np.pi / size)
    assert np.array_equal(values[diagonal, diagonal, 2], -(w ** diagonal))
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
    block = build_block(grover_coin(), 0, 0, 5)
    closed = grover_eigenvectors(0, 0, 5)
    values = grover_eigenvalues(0, 0, 5)
    for target in (-1.0, 1.0):
        closed_cols = closed[:, np.abs(values - target) < 1e-9]
        p_closed = closed_cols @ closed_cols.conj().T
        numeric_cols = block.eigenvectors[:, np.abs(block.eigenvalues - target) < 1e-9]
        p_numeric = numeric_cols @ numeric_cols.conj().T
        assert np.abs(p_closed - p_numeric).max() < 1e-10


def _class_holding(size, block, k=3):
    """The row of the grover class table whose orbit holds `block`, for eigenvalue k."""
    expansion = origin_coefficients(grover_coin(), InitialSpec.pure("R"), size)
    for cls in expansion.classes:
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
    expansion = origin_coefficients(grover_coin(), InitialSpec.pure("R"), size)
    for cls in expansion.classes:
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

def _class_by_label(expansion, representative, k):
    for cls in expansion.classes:
        if cls.representative == representative and cls.k == k:
            return cls
    raise AssertionError(f"class {representative}, k={k} not found")


@pytest.mark.parametrize("size", [5, 7])
def test_grover_pure_r_coefficient_table(size):
    expansion = origin_coefficients(grover_coin(), InitialSpec.pure("R"), size)
    assert expansion.c_plus[0] == pytest.approx(size ** 2 / 4, abs=1e-9)
    assert expansion.c_minus[0] == pytest.approx(0.5 + size ** 2 / 4, abs=1e-9)
    half = (size - 1) // 2
    for n in range(1, half + 1):
        for k in (1, 2, 3, 4):
            coeff = _class_by_label(expansion, (n, 0), k).weights[0]
            assert coeff == pytest.approx(1.0, abs=1e-9)
    for n in range(1, size):
        expected = {1: 0.5, 2: 0.5, 3: 0.0, 4: 1.0}
        for k, value in expected.items():
            coeff = _class_by_label(expansion, (n, n), k).weights[0]
            assert coeff == pytest.approx(value, abs=1e-9)
    for n in range(1, half):
        for m in range(n + 1, half + 1):
            for k in (1, 2, 3, 4):
                coeff = _class_by_label(expansion, (n, m), k).weights[0]
                assert coeff == pytest.approx(2.0, abs=1e-9)


def test_grover_pure_l_coefficient_table():
    size = 7
    xi = lambda j: 2 * np.pi * j / size
    expansion = origin_coefficients(grover_coin(), InitialSpec.pure("L"), size)
    for n in range(1, (size - 1) // 2 + 1):
        expected = -1 + 4 / (3 + np.cos(xi(n)))
        for k in (3, 4):
            coeff = _class_by_label(expansion, (n, 0), k).weights[0]
            assert coeff == pytest.approx(expected, abs=1e-9)
    for n in range(1, size):
        for k in (3, 4):
            coeff = _class_by_label(expansion, (n, n), k).weights[0]
            assert abs(coeff) < 1e-9
    for (n, m) in [(1, 2), (1, 3), (2, 3)]:
        cn, cm = np.cos(xi(n)), np.cos(xi(m))
        expected = 4 * (cm - cn) ** 2 / (
            6 - np.cos(2 * xi(m)) - np.cos(2 * xi(n)) - 4 * cn * cm
        )
        for k in (3, 4):
            coeff = _class_by_label(expansion, (n, m), k).weights[0]
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
    expansion = origin_coefficients(grover_coin(), InitialSpec.pure("R"), size)
    for (n, m) in [(1, 2), (2, 3)]:
        cn, cm = np.cos(xi(n)), np.cos(xi(m))
        k1 = _class_by_label(expansion, (n, m), 1).weights
        k2 = _class_by_label(expansion, (n, m), 2).weights
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


def reference_grover_classes(spec, size):
    """
    The grover class table from explicit orbit sets and a per-member loop
    over `build_block`: (representative, k, members, multiplicity,
    eigenvalue, weights) per class, block (0, 0) left out.
    """
    half = (size - 1) // 2
    representatives = (
        [(n, 0) for n in range(1, half + 1)]
        + [(n, n) for n in range(1, size)]
        + [(n, m) for n in range(1, half) for m in range(n + 1, half + 1)]
    )

    def orbit(n, m):
        if m == 0:
            return {(n, 0), (0, n), (size - n, 0), (0, size - n)}
        if n == m:
            return {(n, n), (n, size - n)}
        pairs = {(p, q) for p in (n, size - n) for q in (m, size - m)}
        return pairs | {(q, p) for p, q in pairs}

    blocks = {}
    rows = []
    for rep in representatives:
        members = tuple(sorted(orbit(*rep)))
        for k, value in enumerate(grover_eigenvalues(*rep, size), start=1):
            total = np.zeros(4, dtype=complex)
            for member in members:
                if member not in blocks:
                    blocks[member] = build_block(grover_coin(), *member, size)
                block = blocks[member]
                match = np.abs(block.eigenvalues - value) <= DEGENERACY_TOL
                assert match.any()
                vectors = block.eigenvectors[:, match]
                total += vectors @ (vectors.conj().T @ spec.weights)
            rows.append((rep, k, members, len(members), complex(value), total))
    return rows


@pytest.mark.parametrize("size", [3, 5, 7, 9, 21])
@pytest.mark.parametrize(
    "spec",
    [InitialSpec.pure("R"), InitialSpec.pure("L"), InitialSpec(0.5, -0.5j, 0.5, 0.5j)],
    ids=["R", "L", "custom"],
)
def test_grover_class_table_matches_per_member_reference(spec, size):
    expansion = origin_coefficients(grover_coin(), spec, size)
    origin = [cls for cls in expansion.classes if cls.representative == (0, 0)]
    assert [cls.members for cls in origin] == [((0, 0),)] * 2
    table = expansion.classes[len(origin):]
    reference = reference_grover_classes(spec, size)
    assert len(table) == len(reference)
    for cls, (rep, k, members, multiplicity, value, weights) in zip(table, reference):
        assert (cls.representative, cls.k, cls.members) == (rep, k, members)
        assert (cls.multiplicity, cls.eigenvalue) == (multiplicity, value)
        assert np.abs(cls.weights - weights).max() < 1e-12


def test_grover_class_table_names_block_lacking_its_eigenvalue(monkeypatch):
    size = 7
    origin_terms = spectral._origin_terms

    def shifted(*args):
        values, terms = origin_terms(*args)
        values[(2 * size + 3) * 4 + 2] += 1e-6  # block (2, 3), its l3
        return values, terms

    monkeypatch.setattr(spectral, "_origin_terms", shifted)
    with pytest.raises(SpectralError, match=r"block \(2, 3\) lacks expected eigenvalue"):
        origin_coefficients(grover_coin(), InitialSpec.pure("R"), size)


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
    # every one of the 4 N^2 eigenvalues is accounted for exactly once; an orbit
    # holds 4 blocks on the axes, 2 on the diagonal and 8 elsewhere
    for size in (5, 9):
        expansion = origin_coefficients(grover_coin(), InitialSpec.pure("R"), size)
        assert sum(cls.multiplicity for cls in expansion.classes) == 4 * size ** 2
        for cls in expansion.classes:
            n, m = cls.representative
            if (n, m) != (0, 0):
                orbit = 4 if m == 0 else 2 if n == m else 8
                assert len(cls.members) == cls.multiplicity == orbit


def test_non_grover_expansion_unlabeled_clusters():
    expansion = origin_coefficients(a1_coin(), InitialSpec.pure("R"), 5)
    assert all(cls.representative is None for cls in expansion.classes)
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
    counts = {"eig": 0, "solve": 0}
    eig, solve = np.linalg.eig, np.linalg.solve

    def counting_eig(a):
        counts["eig"] += int(np.prod(np.shape(a)[:-2]))
        return eig(a)

    def counting_solve(a, b):
        counts["solve"] += 1
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "eig", counting_eig)
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
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: perturb(*eig(a)))
    with pytest.raises(SpectralError, match=rf"{message} .* in block \(\d+, \d+\)"):
        SpectralDecomposition.build(a2_coin(), 5)


@pytest.mark.parametrize("coin", [grover_coin(), a1_coin()], ids=["grover", "a1"])
def test_origin_coefficients_diagonalize_each_block_once(coin, linalg_counts):
    origin_coefficients(coin, InitialSpec.pure("R"), 9)
    assert linalg_counts["eig"] == 81


@pytest.mark.parametrize("t", [20, 5000])
def test_evolve_spectral_haar_coin_without_solve(linalg_counts, t):
    coin = haar_coin()
    initial = pure_state(9, "R")
    spectral = evolve_spectral(initial, coin, t)
    assert linalg_counts["eig"] == 0
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
        values, vectors = eigensystems(*args)
        return values * np.exp(1j * rng.choice([-4e-16, 4e-16], size=values.shape)), vectors

    monkeypatch.setattr(spectral, "_eigensystems", jittered)
    moved = SpectralDecomposition.build(coin, 21)
    for before, after in zip(cluster_sequences(reference), cluster_sequences(moved)):
        assert [m for _, m in before] == [m for _, m in after]
        assert max(abs(a - b) for (a, _), (b, _) in zip(before, after)) < 1e-12


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
