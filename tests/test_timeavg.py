import io
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qwalk2d
from qwalk2d import (
    Coin,
    ConsistencyError,
    InitialSpec,
    a1_coin,
    a2_coin,
    alpha_extrema,
    closed_form_report,
    empirical_time_average,
    exact_time_average,
    grover_closed_form,
    grover_coin,
    integral_constants,
    limit_report,
    limit_time_average,
    localization_predictor,
    origin_superposition,
    pure_state,
    scan_alpha,
    symmetric_family,
    write_report_json,
    write_scan_csv,
)

PURE_R = InitialSpec.pure("R")


def test_closed_form_n5_value():
    # 1/8 + 1/20 - 2/125 + 1/500 = 0.161 exactly
    assert grover_closed_form(5) == pytest.approx(0.161, abs=1e-15)


def test_closed_form_tends_to_one_eighth():
    assert grover_closed_form(10 ** 6 + 1) == pytest.approx(0.125, abs=1e-11)


def test_closed_form_monotone_decreasing():
    values = [grover_closed_form(n) for n in (3, 5, 7, 9, 11, 21, 51)]
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("size", [3, 5, 9, 15])
def test_closed_form_parity_identity(size):
    even = grover_closed_form(size, "even")
    odd = grover_closed_form(size, "odd")
    assert grover_closed_form(size, "all") == pytest.approx((even + odd) / 2, abs=1e-15)


def test_closed_form_report_needs_grover_from_r():
    report = closed_form_report(symmetric_family(0.5), PURE_R, 9, "even")
    assert report.per_chirality == (grover_closed_form(9, "even"),)
    assert report.total is None and report.as_dict()["per_chirality"].keys() == {"R"}
    with pytest.raises(ValueError, match="grover coin"):
        closed_form_report(a1_coin(), PURE_R, 9)
    with pytest.raises(ValueError, match="pure R"):
        closed_form_report(grover_coin(), InitialSpec.pure("L"), 9)


def test_closed_form_rejects_even_size():
    with pytest.raises(ValueError):
        grover_closed_form(4)


@pytest.mark.parametrize("size", [3, 5, 7])
def test_exact_matches_closed_form(size):
    report = exact_time_average(grover_coin(), PURE_R, size)
    assert report.per_chirality[0] == pytest.approx(grover_closed_form(size), abs=1e-10)


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_exact_parity_matches_closed_form(parity):
    report = exact_time_average(grover_coin(), PURE_R, 5, parity=parity)
    assert report.per_chirality[0] == pytest.approx(
        grover_closed_form(5, parity), abs=1e-10
    )
    with pytest.raises(ValueError, match="parity must be one of"):
        exact_time_average(grover_coin(), PURE_R, 5, parity="both")


@pytest.mark.parametrize("coin", [grover_coin(), a1_coin(), symmetric_family(0.4)])
def test_exact_parity_average_identity(coin):
    spec = InitialSpec(0.5, 0.5, 0.5, 0.5)
    full = np.array(exact_time_average(coin, spec, 5).per_chirality)
    even = np.array(exact_time_average(coin, spec, 5, parity="even").per_chirality)
    odd = np.array(exact_time_average(coin, spec, 5, parity="odd").per_chirality)
    assert np.abs(full - (even + odd) / 2).max() < 1e-12


@settings(deadline=None, max_examples=30)
@given(
    st.integers(0, 2 ** 32 - 1),
    st.sampled_from([3, 5, 7]),
)
def test_exact_parity_average_identity_random_coin_and_weights(seed, size):
    # Haar spectra hold no +-l pairs; the fixed coins above carry the pairing
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    coin = Coin(q * np.exp(-1j * np.angle(np.diag(r)))[None, :], label="haar")
    weights = rng.normal(size=4) + 1j * rng.normal(size=4)
    spec = InitialSpec(*(weights / np.linalg.norm(weights)))
    full = np.array(exact_time_average(coin, spec, size).per_chirality)
    even = np.array(exact_time_average(coin, spec, size, parity="even").per_chirality)
    odd = np.array(exact_time_average(coin, spec, size, parity="odd").per_chirality)
    assert np.abs(full - (even + odd) / 2).max() < 1e-12


def test_empirical_single_sample_is_initial_probability():
    report = empirical_time_average(origin_superposition(5, PURE_R), grover_coin(), 1)
    assert report.per_chirality[0] == 1.0
    assert report.total == 1.0
    assert report.samples == 1
    assert report.initial == "state"  # a state carries no selector text


def test_empirical_identity_coin_hand_values():
    # identity coin: walker circles the torus with period N
    identity = Coin(np.eye(4), label="identity")
    state = origin_superposition(5, PURE_R)
    assert empirical_time_average(state, identity, 5).per_chirality[0] == pytest.approx(1 / 5)
    assert empirical_time_average(state, identity, 5, parity="even").per_chirality[
        0
    ] == pytest.approx(1 / 3)
    assert empirical_time_average(state, identity, 5, parity="odd").per_chirality[
        0
    ] == pytest.approx(0.0)
    off_site = empirical_time_average(state, identity, 5, site=(1, 0))
    assert off_site.per_chirality[0] == pytest.approx(1 / 5)
    assert off_site.site == (1, 0)
    assert off_site.as_dict()["site"] == [1, 0]


def test_empirical_rejects_bad_horizon():
    with pytest.raises(ValueError):
        empirical_time_average(origin_superposition(5, PURE_R), grover_coin(), 0)
    # t = 0 is the only time below T = 1, so the odd class is empty
    with pytest.raises(ValueError, match="no odd time"):
        empirical_time_average(origin_superposition(5, PURE_R), grover_coin(), 1, parity="odd")


def test_empirical_converges_to_exact_for_a1():
    exact = exact_time_average(a1_coin(), PURE_R, 5)
    empirical = empirical_time_average(
        origin_superposition(5, PURE_R), a1_coin(), 20000
    )
    assert abs(empirical.per_chirality[0] - exact.per_chirality[0]) < 2e-3
    assert abs(empirical.total - exact.total) < 2e-3


def test_limit_values_for_pure_r():
    pi = math.pi
    assert limit_time_average(PURE_R, "R") == pytest.approx(1 / 8, abs=1e-15)
    assert limit_time_average(PURE_R, "L") == pytest.approx(
        1 / 8 + 2 / pi ** 2 - 1 / pi, abs=1e-15
    )
    for c in ("U", "D"):
        assert limit_time_average(PURE_R, c) == pytest.approx(
            1 / 8 + 1 / (2 * pi ** 2) - 1 / (2 * pi), abs=1e-15
        )
    report = limit_report(grover_coin(), PURE_R)
    assert report.total == pytest.approx(1 / 2 + 3 / pi ** 2 - 2 / pi, abs=1e-14)
    assert report.size is None


@settings(deadline=None, max_examples=40)
@given(
    st.floats(-1, 1),
    st.floats(0, 2 * math.pi),
    st.floats(0, 2 * math.pi),
)
def test_limit_two_component_closed_form(alpha, phase_a, phase_b):
    # chirality-R limit of (alpha, beta) starts: (1/8) |alpha + (1 - 4/pi) beta|^2
    a = alpha * np.exp(1j * phase_a)
    b = math.sqrt(1 - alpha ** 2) * np.exp(1j * phase_b)
    spec = InitialSpec(a, b, 0, 0)
    expected = abs(a + (1 - 4 / math.pi) * b) ** 2 / 8
    assert limit_time_average(spec, "R") == pytest.approx(expected, abs=1e-14)
    expected_l = abs(b + (1 - 4 / math.pi) * a) ** 2 / 8
    assert limit_time_average(spec, "L") == pytest.approx(expected_l, abs=1e-14)


@pytest.mark.parametrize("theta", [0.0, 1 / 3, 1.0])
def test_delocalizing_family_limits_vanish(theta):
    w = np.exp(1j * theta) / 2
    spec = InitialSpec(w, w, -w, -w)
    for chirality in range(4):
        assert limit_time_average(spec, chirality) < 1e-12


def test_uniform_state_maximizes_summed_limit():
    spec = InitialSpec(0.5, 0.5, 0.5, 0.5)
    maximum = 2 + 8 / math.pi ** 2 - 8 / math.pi
    assert limit_report(grover_coin(), spec).total == pytest.approx(maximum, abs=1e-14)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(-1, 1), min_size=8, max_size=8))
def test_summed_limit_never_exceeds_uniform_maximum(raw):
    vec = np.array(raw[:4]) + 1j * np.array(raw[4:])
    norm = np.linalg.norm(vec)
    if norm < 1e-3:
        return
    spec = InitialSpec(*(vec / norm))
    maximum = 2 + 8 / math.pi ** 2 - 8 / math.pi
    assert limit_report(grover_coin(), spec).total <= maximum + 1e-12


@settings(deadline=None, max_examples=10)
@given(st.lists(st.floats(-1, 1), min_size=8, max_size=8))
def test_exact_route_meets_limit_route_for_any_initial_state(raw):
    # exact(N) - limit is O(1/N^2) per chirality, so one Richardson step from
    # N = 21 and 41 lands far closer to the limit than N = 41 alone
    vec = np.array(raw[:4]) + 1j * np.array(raw[4:])
    norm = np.linalg.norm(vec)
    if norm < 1e-3:
        return
    spec = InitialSpec(*(vec / norm))
    limit = np.array(limit_report(grover_coin(), spec).per_chirality)
    exact = {
        size: np.array(exact_time_average(grover_coin(), spec, size).per_chirality)
        for size in (11, 21, 41)
    }
    for size, values in exact.items():
        assert size ** 2 * np.abs(values - limit).max() <= 2.0
    richardson = (41 ** 2 * exact[41] - 21 ** 2 * exact[21]) / (41 ** 2 - 21 ** 2)
    gap = np.abs(exact[41] - limit).max()
    assert np.abs(richardson - limit).max() <= 0.2 * gap + 1e-12


def test_uniform_state_even_time_average_exceeds_half():
    # numerical observation: the even-time total at the summed-limit
    # maximizer stays above 1/2 on finite lattices
    spec = InitialSpec(0.5, 0.5, 0.5, 0.5)
    report = exact_time_average(grover_coin(), spec, 21, parity="even")
    assert report.total > 0.5


def test_alpha_extrema_values():
    extrema = alpha_extrema()
    assert extrema.alpha_min == pytest.approx(0.26357, abs=1e-4)
    assert extrema.alpha_max == pytest.approx(
        math.pi / math.sqrt(16 - 8 * math.pi + 2 * math.pi ** 2), abs=1e-15
    )
    assert extrema.alpha_max == pytest.approx(0.96464, abs=1e-4)


def test_limit_vanishes_at_alpha_min():
    extrema = alpha_extrema()
    beta = math.sqrt(1 - extrema.alpha_min ** 2)
    assert limit_time_average(InitialSpec(extrema.alpha_min, beta, 0, 0), "R") < 1e-12


def test_scan_maximum_is_a_local_maximum():
    # on the beta >= 0 branch the chirality-R maximum sits at -alpha_max
    # (the same state as +alpha_max up to a global phase)
    extrema = alpha_extrema()
    location = -extrema.alpha_max

    def p_r(alpha):
        beta = math.sqrt(1 - alpha ** 2)
        return limit_time_average(InitialSpec(alpha, beta, 0, 0), "R")

    h = 1e-4
    second = (p_r(location + h) - 2 * p_r(location) + p_r(location - h)) / h ** 2
    assert second < 0
    assert p_r(location) > p_r(location + 0.01)
    assert p_r(location) > p_r(location - 0.01)


def test_scan_alpha_table():
    rows = scan_alpha(201)
    assert rows.shape == (201, 3)
    assert rows[0, 0] == -1.0 and rows[-1, 0] == 1.0
    assert rows[0, 1] == pytest.approx(1 / 8, abs=1e-14)
    assert rows[-1, 1] == pytest.approx(1 / 8, abs=1e-14)
    root = rows[np.argmin(rows[:, 1]), 0]
    assert root == pytest.approx(0.26357, abs=0.011)  # grid spacing is 0.01
    # L curve is the R curve with the two weights exchanged
    for alpha, _, p_l in rows[::20]:
        beta = math.sqrt(max(0.0, 1 - alpha ** 2))
        assert p_l == pytest.approx(
            limit_time_average(InitialSpec(beta, alpha, 0, 0), "R"), abs=1e-14
        )


@pytest.mark.parametrize("samples", [2, 201, 2001])
def test_scan_rows_equal_limit_time_average(samples):
    rows = scan_alpha(samples)
    betas = np.sqrt(np.clip(1.0 - rows[:, 0] ** 2, 0.0, None))
    for (alpha, p_r, p_l), beta in zip(rows, betas):
        spec = InitialSpec(alpha, beta, 0, 0)
        want = np.array([limit_time_average(spec, "R"), limit_time_average(spec, "L")])
        # the scan squares arrays (x * x, correctly rounded) where the scalar `** 2` calls
        # pow, which can land one ulp away when x^2 sits next to a rounding tie
        assert np.all(np.abs(np.array([p_r, p_l]) - want) <= np.spacing(want))


def test_scan_alpha_rejects_tiny_sample_count():
    with pytest.raises(ValueError):
        scan_alpha(1)


def test_scan_csv_export(tmp_path):
    path = tmp_path / "scan.csv"
    write_scan_csv(path, 11)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "alpha,p_R,p_L"
    assert len(lines) == 12


@pytest.mark.parametrize("samples", [2, 3, 201, 2001, 20001])
def test_scan_csv_matches_f_string_rows(samples):
    # the per-row f-strings the scan CSV used before it wrote through the number kernel
    lines = ["alpha,p_R,p_L"]
    lines.extend(f"{a:.17g},{r:.17g},{l:.17g}" for a, r, l in scan_alpha(samples))
    out = io.StringIO()
    write_scan_csv(out, samples)
    assert out.getvalue() == "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "factory,expected",
    [
        (grover_coin, True),
        (lambda: symmetric_family(1 / 3), True),
        (a1_coin, False),
        (a2_coin, False),
    ],
)
def test_predictor_verdicts(factory, expected):
    report = localization_predictor(factory(), 5)
    assert report.localizing is expected
    if expected:
        values = sorted(v.real for v in report.common_eigenvalues)
        assert values == pytest.approx([-1.0, 1.0], abs=1e-9)
        assert report.max_multiplicity == 27
    else:
        assert report.common_eigenvalues == ()


def test_predictor_consistent_with_origin_floor():
    # localizing <=> the exact origin total stays above 0.05 through N = 5, 9, 15
    for factory in (grover_coin, lambda: symmetric_family(1 / 3), a1_coin, a2_coin):
        coin = factory()
        verdict = localization_predictor(coin, 5).localizing
        totals = [exact_time_average(coin, PURE_R, n).total for n in (5, 9, 15)]
        assert verdict is (min(totals) >= 0.05)


def test_delocalizing_family_finite_size_decay():
    w = 0.5 + 0j
    spec = InitialSpec(w, w, -w, -w)
    t9 = exact_time_average(grover_coin(), spec, 9).total
    t19 = exact_time_average(grover_coin(), spec, 19).total
    assert t9 >= 2 * t19


def test_integral_constants_closed_forms():
    constants = integral_constants()
    assert constants.i1 == pytest.approx(0.25 - 1 / math.pi, abs=1e-15)
    assert constants.i2 == pytest.approx(0.25 - 1 / (2 * math.pi), abs=1e-15)
    assert constants.i1 == pytest.approx(-0.06831, abs=1e-5)
    assert constants.i2 == pytest.approx(0.09085, abs=1e-5)


@pytest.mark.parametrize("name,factor", [("_integrand_opposite", 1 + 1e-9),
                                         ("_integrand_transverse", 1 + 1e-9),
                                         ("_integrand_opposite", math.nan)])
def test_integral_constants_quadrature_check_is_tight(monkeypatch, name, factor):
    # a relative shift of 1e-9 moves a quadrature value by 7e-11 or 9e-11
    integrand = getattr(qwalk2d.timeavg, name)
    monkeypatch.setattr(qwalk2d.timeavg, name, lambda x, y: factor * integrand(x, y))
    with pytest.raises(ConsistencyError, match="quadrature"):
        integral_constants()


def test_limit_coefficients_are_the_checked_constants():
    i1, i2 = integral_constants()
    root2 = math.sqrt(2)
    assert qwalk2d.timeavg._SELF_COEFF == pytest.approx(root2 / 4, abs=1e-15)
    assert qwalk2d.timeavg._OPPOSITE_COEFF == pytest.approx(root2 * i1, abs=1e-15)
    assert qwalk2d.timeavg._TRANSVERSE_COEFF == pytest.approx(root2 * i2, abs=1e-15)


def test_lattice_sums_approach_integral_constant():
    # Riemann sums of the opposite-chirality coefficient over the momentum
    # triangle approach i1 from above as the lattice grows
    def lattice_sum(size):
        xi = lambda j: 2 * math.pi * j / size
        total = 0.0
        for n in range(1, (size - 3) // 2 + 1):
            for m in range(n + 1, (size - 1) // 2 + 1):
                cn, cm = math.cos(xi(n)), math.cos(xi(m))
                total += 2 * (cm + cn - 2 * cm * cn) / (-2 + cm + cn)
        return total / size ** 2

    i1 = 0.25 - 1 / math.pi
    errors = [abs(lattice_sum(size) - i1) for size in (51, 101, 201)]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 0.005


def test_report_round_trip(tmp_path):
    report = exact_time_average(grover_coin(), PURE_R, 5)
    path = tmp_path / "report.json"
    write_report_json(report, path)
    payload = json.loads(path.read_text())
    assert payload["method"] == "exact"
    assert payload["coin"] == "grover"
    assert payload["N"] == 5
    assert payload["initial"] == "R"
    assert payload["per_chirality"]["R"] == pytest.approx(0.161, abs=1e-10)
    assert payload["total"] == pytest.approx(report.total)


def test_report_total_is_chirality_sum():
    report = exact_time_average(grover_coin(), InitialSpec(0.5, 0.5, 0.5, 0.5), 7)
    assert report.total == pytest.approx(sum(report.per_chirality), abs=1e-12)


@pytest.mark.parametrize("values", [[np.nan, 0.0, 0.0, 0.0], [0.1, 0.2, 0.3, 1.5],
                                    [-1e-6, 0.1, 0.1, 0.1]])
def test_report_rejects_values_outside_unit_interval(values):
    with pytest.raises(ConsistencyError, match="left"):
        qwalk2d.timeavg._report("exact", "all", "grover", "R", 5, values)


def test_consistency_error_is_exported():
    assert issubclass(ConsistencyError, RuntimeError)


def test_package_import_leaves_scipy_unloaded():
    # numpy is the only runtime dependency, the quadrature cross-check included
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(qwalk2d.__file__).parents[1]))
    code = "import sys, qwalk2d; qwalk2d.integral_constants(); print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=env,
    )
    assert result.stdout.strip() == "False"
