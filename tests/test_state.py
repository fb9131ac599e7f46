import csv
import json
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwalk2d import (
    InitialSpec,
    SpectralDecomposition,
    WalkState,
    a1_coin,
    coords,
    evolve,
    evolve_spectral,
    grover_coin,
    origin_superposition,
    pure_state,
    step,
    write_grid_csv,
    write_grid_json,
)
from qwalk2d import state as state_module
from test_evolve import random_unitary_coin


def test_pure_state_single_entry():
    state = pure_state(5, "R", 0, 0)
    assert state.norm_sq() == pytest.approx(1.0, abs=1e-15)
    assert state.amplitude(0, 0, "R") == 1.0
    assert np.count_nonzero(state.amplitudes) == 1
    assert state.t == 0


def test_pure_state_any_site_and_chirality():
    state = pure_state(7, 3, x=-3, y=2)
    assert state.amplitude(-3, 2, "D") == 1.0
    assert state.probability_at(-3, 2) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [4, 2, 0, -5, 1])
def test_pure_state_rejects_bad_size(n):
    with pytest.raises(ValueError):
        pure_state(n, "R")


def test_pure_state_rejects_out_of_range_site():
    with pytest.raises(ValueError):
        pure_state(5, "R", x=3, y=0)


def test_origin_superposition_reduces_to_pure():
    state = origin_superposition(5, InitialSpec(alpha=1.0))
    ref = pure_state(5, "R", 0, 0)
    assert np.array_equal(state.amplitudes, ref.amplitudes)


def test_origin_superposition_phase_weights():
    w = np.exp(1j / 3) / 2
    spec = InitialSpec(w, w, -w, -w)
    state = origin_superposition(51, spec)
    assert state.probability_at(0, 0) == pytest.approx(1.0, abs=1e-12)
    assert state.amplitude(0, 0, "U") == pytest.approx(-w)


def test_initial_spec_requires_normalization():
    with pytest.raises(ValueError):
        InitialSpec(alpha=1.0, beta=0.5)


def test_initial_spec_uniform_valid():
    spec = InitialSpec(0.5, 0.5, 0.5, 0.5)
    assert spec.describe().startswith("custom:")


def test_initial_spec_pure_describe():
    assert InitialSpec.pure("L").describe() == "L"


@given(st.integers(min_value=0, max_value=3), st.floats(0, 2 * np.pi))
def test_origin_probability_one_for_any_normalized_spec(idx, phase):
    weights = np.zeros(4, complex)
    weights[idx] = np.exp(1j * phase)
    state = origin_superposition(5, InitialSpec(*weights))
    assert state.probability_at(0, 0) == pytest.approx(1.0, abs=1e-12)


def test_probability_at_examples():
    state = pure_state(5, "R")
    assert state.probability_at(0, 0) == 1.0
    assert state.probability_at(1, 2) == 0.0
    with pytest.raises(ValueError):
        state.probability_at(5, 0)


def test_probability_quarter_after_one_step():
    state = step(pure_state(5, "R"), grover_coin())
    for site in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
        assert state.probability_at(*site) == pytest.approx(0.25, abs=1e-15)
    assert state.probability_at(0, 0) == 0.0


def test_probability_grid_layout_and_sum():
    state = pure_state(5, "U", x=2, y=-1)
    grid = state.probability_grid()
    cs = coords(5)
    assert grid[np.where(cs == 2)[0][0], np.where(cs == -1)[0][0]] == 1.0
    assert grid.sum() == pytest.approx(1.0, abs=1e-12)


def test_grid_sum_stays_one_under_evolution():
    state = pure_state(7, "R")
    for _ in range(25):
        state = step(state, grover_coin())
    assert state.probability_grid().sum() == pytest.approx(1.0, abs=1e-10)


def test_walkstate_rejects_unnormalized():
    arr = np.zeros((5, 5, 4), complex)
    arr[0, 0, 0] = 0.9
    with pytest.raises(ValueError, match="norm"):
        WalkState(arr)


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, np.nan)])
def test_walkstate_rejects_non_finite_entry(value):
    arr = np.zeros((5, 5, 4), complex)
    arr[0, 0, 0] = 1.0
    arr[1, 2, 3] = value
    with pytest.raises(ValueError, match="norm"):
        WalkState(arr)


@pytest.mark.parametrize("value", [np.nan, complex(np.nan, 0.0), np.inf])
def test_initial_spec_rejects_non_finite_weight(value):
    with pytest.raises(ValueError, match="sum"):
        InitialSpec(value, 0.0, 0.0, 0.0)


def test_walkstate_rejects_even_grid():
    arr = np.zeros((4, 4, 4), complex)
    arr[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        WalkState(arr)


def test_translated_moves_origin():
    state = pure_state(5, "R").translated(1, -2)
    assert state.amplitude(1, -2, "R") == 1.0


def test_coords_centered():
    assert list(coords(5)) == [-2, -1, 0, 1, 2]


def test_grid_csv_export(tmp_path):
    state = step(pure_state(5, "R"), grover_coin())
    path = tmp_path / "grid.csv"
    write_grid_csv(state, path)
    with open(path) as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 25
    probs = {(int(r["x"]), int(r["y"])): float(r["p"]) for r in rows}
    assert probs[(1, 0)] == pytest.approx(0.25)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_grid_json_export_metadata(tmp_path):
    state = step(pure_state(5, "R"), grover_coin())
    path = tmp_path / "grid.json"
    write_grid_json(state, path, coin="grover", initial="R")
    payload = json.loads(path.read_text())
    assert payload["coin"] == "grover"
    assert payload["N"] == 5
    assert payload["t"] == 1
    assert payload["initial"] == "R"
    assert len(payload["rows"]) == 25


# The writers as they were before the one-pass rewrite, kept as the byte reference.

def reference_grid_rows(state):
    grid = state.probability_grid()
    cs = coords(state.n)
    for i, x in enumerate(cs):
        for j, y in enumerate(cs):
            yield int(x), int(y), float(grid[i, j])


def reference_grid_csv(state, path):
    lines = ["x,y,p"]
    lines.extend(f"{x},{y},{p:.17g}" for x, y, p in reference_grid_rows(state))
    pathlib.Path(path).write_text("\n".join(lines) + "\n")


def reference_grid_json(state, path, *, coin="", initial=""):
    payload = {
        "coin": coin,
        "N": state.n,
        "t": state.t,
        "initial": initial,
        "columns": ["x", "y", "p"],
        "rows": [[x, y, p] for x, y, p in reference_grid_rows(state)],
    }
    pathlib.Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def assert_writers_match_reference(state, directory, coin="grover", initial="R"):
    """Both writers against their references; returns the CSV text."""
    directory = pathlib.Path(directory)
    write_grid_csv(state, directory / "got.csv")
    reference_grid_csv(state, directory / "want.csv")
    assert (directory / "got.csv").read_bytes() == (directory / "want.csv").read_bytes()
    write_grid_json(state, directory / "got.json", coin=coin, initial=initial)
    reference_grid_json(state, directory / "want.json", coin=coin, initial=initial)
    assert (directory / "got.json").read_bytes() == (directory / "want.json").read_bytes()
    return (directory / "got.csv").read_text()


def test_writers_match_reference_on_pure_state(tmp_path):
    assert_writers_match_reference(pure_state(3, "R"), tmp_path)


def test_writers_match_reference_after_one_grover_step(tmp_path):
    assert_writers_match_reference(step(pure_state(5, "R"), grover_coin()), tmp_path)


def test_writers_match_reference_on_haar_walk(tmp_path):
    rng = np.random.default_rng(7)
    weights = rng.normal(size=4) + 1j * rng.normal(size=4)
    spec = InitialSpec(*(weights / np.linalg.norm(weights)))
    state = evolve(origin_superposition(21, spec), random_unitary_coin(5), 37)
    text = assert_writers_match_reference(state, tmp_path, "random-5", spec.describe())
    # full 17-digit values and exponent forms are both in the file
    assert "e-" in text and any(len(line.split(",")[2]) >= 19 for line in text.split())


def test_grid_json_escapes_labels_like_json(tmp_path):
    state = step(pure_state(5, "R"), grover_coin())
    tricky = 'say "hi" \\ caf\u00e9 \u2192 \n  "rows": 0,\n'
    assert_writers_match_reference(state, tmp_path, tricky, tricky[::-1])
    payload = json.loads((tmp_path / "got.json").read_text())
    assert payload["coin"] == tricky and payload["initial"] == tricky[::-1]
    assert (tmp_path / "got.json").read_bytes().isascii()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([3, 5, 7, 17]),  # 17^2 sites reach KERNEL_MIN_VALUES
    st.integers(0, 2**32 - 1),
    st.integers(-160, 0),
    st.integers(0, 150),
    st.integers(0, 10**6),
    st.text(max_size=8),
)
def test_writers_match_reference_on_random_amplitudes(
    tmp_path_factory, n, seed, lowest, highest, t, label
):
    # |a|^2 spans 1e-320 (subnormal) to 1e300; some entries are exactly zero
    rng = np.random.default_rng(seed)
    shape = (n, n, 4)
    decades = rng.integers(lowest, highest + 1, size=shape)
    amplitudes = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** decades
    amplitudes[rng.random(shape) < 0.2] = 0.0
    state = WalkState(amplitudes, t, validate=False)
    assert_writers_match_reference(state, tmp_path_factory.mktemp("grid"), label, label + "!")


@pytest.mark.parametrize("n", [9, 201])
def test_grid_writers_against_json_loads_and_row_formula(tmp_path, n):
    rng = np.random.default_rng(n)
    amplitudes = rng.normal(size=(n, n, 4)) + 1j * rng.normal(size=(n, n, 4))
    state = WalkState(amplitudes / np.linalg.norm(amplitudes), 17)
    grid, cs = state.probability_grid(), coords(n).tolist()
    sites = [(x, y, float(grid[i, j])) for i, x in enumerate(cs) for j, y in enumerate(cs)]
    write_grid_csv(state, tmp_path / "grid.csv")
    lines = (tmp_path / "grid.csv").read_text().split("\n")
    assert lines[0] == "x,y,p" and lines[-1] == ""
    assert lines[1:-1] == ["%d,%d,%.17g" % site for site in sites]
    write_grid_json(state, tmp_path / "grid.json", coin="haar", initial="R")
    assert json.loads((tmp_path / "grid.json").read_text()) == {
        "coin": "haar", "N": n, "t": 17, "initial": "R", "columns": ["x", "y", "p"],
        "rows": [list(site) for site in sites],
    }


# The writers as they were before the vectorized number kernel: one `%` template
# applied to the flat (x, y, p) tuple of the whole grid, kept as the byte reference.

def template_values(state):
    cs = coords(state.n)
    values = [None] * (3 * state.n ** 2)
    values[0::3] = np.repeat(cs, state.n).tolist()
    values[1::3] = np.tile(cs, state.n).tolist()
    values[2::3] = state.probability_grid().ravel().tolist()
    return tuple(values)


def template_grid_csv(state, path):
    rows = ("%d,%d,%.17g\n" * state.n ** 2) % template_values(state)
    pathlib.Path(path).write_text("x,y,p\n" + rows)


def json_parts(payload, key, row, count, values):
    """
    The text of `json.dumps(payload, indent=2, sort_keys=True) + "\n"` in
    three parts, with the `count` > 0 items of payload[key] each written by
    the `%` template `row` from its share of the flat tuple `values`.
    """
    head, tail = state_module._json_frame(payload, key)
    return head, ",\n".join([row] * count) % values, tail


def template_grid_json(state, path, *, coin="", initial=""):
    payload = {"coin": coin, "N": state.n, "t": state.t, "initial": initial,
               "columns": ["x", "y", "p"]}
    pathlib.Path(path).write_text("".join(json_parts(
        payload, "rows", "    [\n      %d,\n      %d,\n      %r\n    ]", state.n ** 2,
        template_values(state))))


def assert_writers_match_templates(state, directory, coin="", initial=""):
    directory = pathlib.Path(directory)
    write_grid_csv(state, directory / "got.csv")
    template_grid_csv(state, directory / "want.csv")
    assert (directory / "got.csv").read_bytes() == (directory / "want.csv").read_bytes()
    write_grid_json(state, directory / "got.json", coin=coin, initial=initial)
    template_grid_json(state, directory / "want.json", coin=coin, initial=initial)
    assert (directory / "got.json").read_bytes() == (directory / "want.json").read_bytes()


def seeded_spec(seed):
    weights = np.array([1.0, 1j]) @ np.random.default_rng(seed).normal(size=(2, 4))
    return InitialSpec(*(weights / np.linalg.norm(weights)))


GRID_COINS = [grover_coin(), a1_coin(), random_unitary_coin(101)]


# spectral grids carry roundoff far below the values (2.3e-32 at t = 1), direct ones
# exact zeros: both notations and the zero path are in every large case
@pytest.mark.parametrize("backend", [evolve, evolve_spectral], ids=["direct", "spectral"])
@pytest.mark.parametrize("n", [3, 21, 201])
@pytest.mark.parametrize("coin", GRID_COINS, ids=lambda c: c.label)
def test_writers_match_percent_templates_on_walks(tmp_path, coin, n, backend):
    start = pure_state(n, "R") if coin.label == "grover" else origin_superposition(
        n, seeded_spec(101))
    for t in (0, 1, 20, 500):
        assert_writers_match_templates(backend(start, coin, t), tmp_path, coin.label, "R")


def kernel_text(values, shortest):
    """The number kernel's text of each value, as the writers lay it out."""
    texts = []
    for part in np.array_split(values, -(-values.size // 100000)):
        block = np.tile(state_module._NUMBER_TEMPLATE, (part.size, 1))
        keep = np.empty(block.shape, bool)
        state_module._number_columns(block, keep, part, shortest)
        block = np.concatenate([block, np.full((part.size, 1), ord("\n"), np.uint8)], axis=1)
        keep = np.concatenate([keep, np.ones((part.size, 1), bool)], axis=1)
        texts += str(block[keep].data, "ascii").split("\n")[:-1]
    return texts


def assert_kernel_matches_python(values):
    values = np.asarray(values, dtype=np.float64)
    assert kernel_text(values, False) == ["%.17g" % v for v in values.tolist()]
    assert kernel_text(values, True) == [repr(v) for v in values.tolist()]


def edge_values():
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([
        [0.0, 1.0, 5e-324, 2.2250738585072014e-308, 2.0 ** -25, np.finfo(float).max,
         -0.0, -1.5, np.nan, np.inf, -np.inf],
        np.ldexp(1.0, np.arange(-1074, 1024)),  # every power of two
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
    ])


def test_kernel_matches_python_on_edge_values():
    # 2**-25 = 2.98023223876953125e-08 is a tie at 17 digits
    assert "%.17g" % 2.0 ** -25 == "2.9802322387695312e-08"
    assert_kernel_matches_python(edge_values())


def test_kernel_matches_python_on_a_million_values():
    rng = np.random.default_rng(19)
    assert_kernel_matches_python(np.concatenate([
        rng.integers(0, 2**64, 300000, dtype=np.uint64).view(np.float64),  # any bits
        rng.random(300000),
        10.0 ** rng.uniform(-40.0, 0.0, 300000),
        np.abs(rng.normal(size=100000) + 1j * rng.normal(size=100000)) ** 2 / 4e4,
    ]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_kernel_matches_python_on_finite_floats(values):
    # repeated up to KERNEL_MIN_VALUES: fewer values go to Python, not to the kernel
    assert_kernel_matches_python(np.resize(values, state_module.KERNEL_MIN_VALUES))


def test_kernel_formats_nearly_every_walk_value_itself():
    scale = state_module._decimal_scale()
    if scale is None:
        pytest.skip("np.longdouble cannot certify any rounding here")
    grid = evolve(pure_state(201, "R"), grover_coin(), 200).probability_grid().ravel()
    for shortest in (False, True):
        assert state_module._decimal_digits(grid, shortest)[2].mean() > 0.95


def test_kernel_formats_signed_cluster_components_itself():
    # about half of all eigenvalue components are negative; the sign column certifies them
    scale = state_module._decimal_scale()
    if scale is None:
        pytest.skip("np.longdouble cannot certify any rounding here")
    centres = SpectralDecomposition.build(random_unitary_coin(101), 41).centres
    components = np.concatenate([centres.real, centres.imag])
    assert (components < 0).mean() > 0.4
    assert_kernel_matches_python(components)
    for shortest in (False, True):
        assert state_module._decimal_digits(components, shortest)[2].mean() > 0.95


def test_decimal_scale_powers_are_correctly_rounded():
    scale = state_module._decimal_scale()
    if scale is None:
        pytest.skip("np.longdouble cannot certify any rounding here")
    powers, bound = scale
    half_ulp = Fraction(float(np.finfo(np.longdouble).eps)) / 2
    for k, power in zip(state_module._POWER_RANGE, powers):
        exact = Fraction(10) ** k
        assert abs(Fraction(*power.as_integer_ratio()) - exact) <= half_ulp * exact
    assert bound < 0.5


def test_writers_without_longdouble_fall_back_to_python(monkeypatch, tmp_path):
    # what a platform whose np.longdouble is double runs: every value through Python
    monkeypatch.setattr(state_module, "_decimal_scale", lambda: None)
    assert_kernel_matches_python(edge_values())
    state = evolve_spectral(origin_superposition(21, seeded_spec(7)), a1_coin(), 1)
    assert_writers_match_templates(state, tmp_path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_grid_writers_return_the_grid_they_wrote(tmp_path, fmt):
    state = evolve(origin_superposition(9, InitialSpec(0.5, 0.5j, -0.5, 0.5)), a1_coin(), 7)
    path = tmp_path / f"grid.{fmt}"
    if fmt == "csv":
        grid = write_grid_csv(state, path)
        written = np.loadtxt(path, delimiter=",", skiprows=1)[:, 2]
    else:
        grid = write_grid_json(state, path)
        written = np.array([p for _, _, p in json.loads(path.read_text())["rows"]])
    assert np.array_equal(grid, state.probability_grid())
    assert np.array_equal(grid.ravel(), written)
