import dataclasses
import importlib

import pytest

import qwalk2d

MODULES = [importlib.import_module(f"qwalk2d.{name}")
           for name in ("coins", "evolve", "spectral", "state", "timeavg")]


def test_package_all_is_the_union_of_module_all():
    assert set(qwalk2d.__all__) == set().union(*(module.__all__ for module in MODULES))
    assert not [name for name in qwalk2d.__all__ if name.startswith("_")]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_package_names_resolve_to_module_objects(module):
    for name in module.__all__:
        assert getattr(qwalk2d, name) is getattr(module, name)


def test_expansion_dataclass_fields_are_pinned():
    # a field that leaves or joins the public surface shows up as an edit here
    assert [f.name for f in dataclasses.fields(qwalk2d.OriginExpansion)] == [
        "coin_label", "size", "initial", "c_plus", "c_minus",
        "eigenvalues", "weights", "multiplicities",
    ]
    assert [f.name for f in dataclasses.fields(qwalk2d.ClassCoefficients)] == [
        "eigenvalue", "weights", "multiplicity",
    ]
    # the spectrum keeps one row of labels per orbit row, with no (N, N, 4) values grid
    assert [f.name for f in dataclasses.fields(qwalk2d.SpectralDecomposition)] == [
        "coin", "size", "labels", "centres", "multiplicities",
    ]
