import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qwalk2d import (
    Coin,
    a1_coin,
    a2_coin,
    coin_from_json,
    grover_coin,
    symmetric_family,
    unitarity_residual,
)

BUILTINS = [grover_coin, a1_coin, a2_coin, lambda: symmetric_family(1 / 3)]


def test_grover_entries():
    c = grover_coin()
    assert c.entries[0, 0] == -0.5
    assert c.entries[0, 1] == 0.5
    assert np.all(np.diag(c.entries) == -0.5)
    off = c.entries[~np.eye(4, dtype=bool)]
    assert np.all(off == 0.5)


def test_grover_is_involution():
    c = grover_coin().entries
    assert np.abs(c @ c - np.eye(4)).max() < 1e-15


def test_grover_row_sums():
    # each row: -1/2 + 3 * 1/2 = 1
    sums = grover_coin().entries.sum(axis=1)
    assert np.abs(sums - 1.0).max() < 1e-15


def test_a1_entries():
    c = a1_coin()
    assert c.entries[0, 2] == pytest.approx(-1 / np.sqrt(2), abs=1e-15)
    assert c.entries[0, 0] == 0.0


def test_a2_entries():
    c = a2_coin()
    assert c.entries[0, 0] == pytest.approx(-1 / np.sqrt(3), abs=1e-15)


@pytest.mark.parametrize("factory", BUILTINS)
def test_builtin_unitarity(factory):
    assert unitarity_residual(factory().entries) < 1e-12


def test_symmetric_family_half_is_grover_exactly():
    a4 = symmetric_family(0.5)
    assert np.array_equal(a4.entries, grover_coin().entries)


def test_symmetric_family_third_entries():
    a4 = symmetric_family(1 / 3)
    assert a4.entries[0, 0] == pytest.approx(-1 / 3, abs=1e-15)
    assert a4.entries[0, 2] == pytest.approx(np.sqrt(2) / 3, abs=1e-15)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
def test_symmetric_family_domain(p):
    with pytest.raises(ValueError):
        symmetric_family(p)


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_symmetric_family_unitary(p):
    assert unitarity_residual(symmetric_family(p).entries) < 1e-12


def test_real_symmetry():
    for coin in (grover_coin(), symmetric_family(0.3)):
        assert coin.is_real
        assert np.abs(coin.entries - coin.entries.T).max() < 1e-15
    assert a1_coin().is_real
    assert a2_coin().is_real


def test_custom_identity_accepted():
    coin = Coin(np.eye(4), label="identity")
    assert coin.label == "identity"


def test_custom_zeros_rejected_with_residual():
    with pytest.raises(ValueError, match="residual"):
        Coin(np.zeros((4, 4)))


def test_custom_grover_equals_builtin():
    coin = Coin(grover_coin().entries)
    assert np.array_equal(coin.entries, grover_coin().entries)


def test_custom_rejects_wrong_shape():
    with pytest.raises(ValueError):
        Coin(np.eye(3))


def test_coin_entries_read_only():
    coin = grover_coin()
    with pytest.raises(ValueError):
        coin.entries[0, 0] = 2.0


def test_coin_json_roundtrip(tmp_path):
    source = a2_coin()
    payload = [[[z.real, z.imag] for z in row] for row in source.entries]
    path = tmp_path / "mycoin.json"
    path.write_text(json.dumps(payload))
    loaded = coin_from_json(path)
    assert loaded.label == "mycoin"
    assert np.abs(loaded.entries - source.entries).max() < 1e-15


def test_coin_json_bad_shape(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[1.0, 2.0], [3.0, 4.0]]))
    with pytest.raises(ValueError, match="4x4"):
        coin_from_json(path)


def test_coin_json_non_unitary(tmp_path):
    payload = [[[1.0, 0.0]] * 4 for _ in range(4)]
    path = tmp_path / "ones.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="residual"):
        coin_from_json(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.5, np.nan)])
def test_non_finite_entry_rejected(value):
    entries = grover_coin().entries.copy()
    entries[2, 1] = value
    with pytest.raises(ValueError, match="non-finite"):
        Coin(entries)
    with pytest.raises(ValueError, match="non-finite"):
        Coin(entries)


def test_coin_dataclass_validates_directly():
    with pytest.raises(ValueError):
        Coin(np.full((4, 4), 0.5 + 1e-6))
