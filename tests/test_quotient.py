import os

import pytest

from ramops.cache import ComponentStore
from ramops.graphalg import GraphComponent, R_PRESENTATION, algebra_basis
from ramops.operad import Component, component_basis
from ramops.quotient import clear_memos
from ramops.ram import ResourceBoundError, operad_dims, presentation
from ramops.reports import dims_to_table

LABEL_SETS = ((1, 2, 3), (4, 5, 6), (1, "*", "#"))


def _ram(labels, store):
    return component_basis(presentation("ram"), labels, store)


def _forest(labels, store):
    return algebra_basis(R_PRESENTATION, labels, "forest", store)


SIDES = {"operad": (Component, _ram), "forest": (GraphComponent, _forest)}


@pytest.mark.parametrize("side", sorted(SIDES))
def test_payload_load_matches_cold_build(side, tmp_path, monkeypatch):
    cls, get = SIDES[side]
    clear_memos()
    cold_store = ComponentStore(str(tmp_path))
    cold = {labels: get(labels, cold_store) for labels in LABEL_SETS}
    assert len(os.listdir(tmp_path)) == 1

    clear_memos()

    def no_build(*args, **kwargs):
        raise AssertionError("a stored component must be loaded, not built")

    monkeypatch.setattr(cls, "ambient_and_span", no_build)
    store = ComponentStore(str(tmp_path))
    for labels, built in cold.items():
        loaded = get(labels, store)
        assert loaded is not built
        assert loaded.monomials == built.monomials
        assert loaded.basis == built.basis
        assert loaded.echelon.pivots == built.echelon.pivots
        assert loaded.echelon.rows == built.echelon.rows
        assert loaded.dims == built.dims
        for m in built.monomials:
            coords = built.coords(built.monomial_element(m))
            assert loaded.coords(loaded.monomial_element(m)) == coords


@pytest.mark.parametrize("labels", LABEL_SETS)
@pytest.mark.parametrize("side", sorted(SIDES))
def test_monomial_normal_form_matches_normal_form(side, labels):
    comp = SIDES[side][1](labels, None)
    for m in comp.monomials:
        assert comp.monomial_normal_form(m) == comp.normal_form(comp.monomial_element(m)).terms


@pytest.mark.parametrize("side", sorted(SIDES))
def test_each_store_gets_its_own_payload(side, tmp_path):
    get = SIDES[side][1]
    first, second = tmp_path / "first", tmp_path / "second"
    get((1, 2, 3), ComponentStore(str(first)))
    get((1, 2, 3), ComponentStore(str(second)))
    assert os.listdir(first) and sorted(os.listdir(second)) == sorted(os.listdir(first))


def test_resource_bound_reports_arities_built_in_the_store():
    store = ComponentStore()
    built = {k: operad_dims("ram", k, store) for k in (1, 2, 3)}
    with pytest.raises(ResourceBoundError) as info:
        operad_dims("ram", 4, store, max_arity=3)
    partial = info.value.partial
    assert partial["max_arity"] == 3
    assert partial["computed_arities"] == {k: dims_to_table(d) for k, d in built.items()}
