import json
import os

import pytest

from ramops import quotient
from ramops.cache import ComponentStore
from ramops.graphalg import (
    ARNOLD_PRESENTATION,
    GraphComponent,
    R_PRESENTATION,
    _relabel_monomial,
    algebra_basis,
)
from ramops.labels import HASH, STAR, standard_labels
from ramops.operad import Component, _map_tree, canonicalize, component_basis
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


def _place_holder_label_sets(n):
    ints = standard_labels(n)
    if n == 1:
        return ((STAR,), (HASH,))
    return (ints[:-1] + (STAR,), ints[:-1] + (HASH,), ints[:-2] + (STAR, HASH))


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_transport_is_sign_free(n):
    # rows of the cocomposition table are transported on this invariant
    operad_side = [
        component_basis(presentation(name), standard_labels(n))
        for name in ("poisson", "bessel", "liegriess", "ram")
    ]
    graph_side = [
        algebra_basis(pres, standard_labels(n), mode)
        for pres in (R_PRESENTATION, ARNOLD_PRESENTATION)
        for mode in ("forest", "full")
    ]
    for labels in _place_holder_label_sets(n):
        phi = dict(zip(standard_labels(n), labels))
        for comp in operad_side:
            moved = component_basis(comp.pres, labels)
            for m, t in zip(comp.monomials, moved.monomials):
                assert canonicalize(_map_tree(m, phi), comp.pres.gens) == (1, t)
                assert canonicalize(t, comp.pres.gens) == (1, t)
        for comp in graph_side:
            moved = algebra_basis(comp.pres, labels, comp.mode)
            for m, key in zip(comp.monomials, moved.monomials):
                assert _relabel_monomial(comp.pres, m, phi) == (1, key)
                assert _relabel_monomial(comp.pres, key, {a: a for a in labels}) == (1, key)


@pytest.mark.parametrize("side", sorted(SIDES))
def test_payload_of_another_engine_format_is_rebuilt(side, tmp_path, monkeypatch):
    cls, get = SIDES[side]
    clear_memos()
    with monkeypatch.context() as mp:
        mp.setattr(quotient, "ENGINE_FORMAT", quotient.ENGINE_FORMAT + 1)
        other = get((1, 2, 3), ComponentStore(str(tmp_path)))
    assert len(os.listdir(tmp_path)) == 1

    clear_memos()
    builds = []
    build = cls.ambient_and_span

    def counted(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(cls, "ambient_and_span", counted)
    current = get((1, 2, 3), ComponentStore(str(tmp_path)))
    assert len(builds) == 1 and len(os.listdir(tmp_path)) == 2
    assert current.monomials == other.monomials and current.echelon.rows == other.echelon.rows


def _drop_rows(payload):
    del payload["rows"]


def _scale_a_pivot_entry(payload):
    row = next(r for r in payload["rows"] if len(r) > 1)
    row[0][1] = "2"  # the leading 1 of the row


def _fill_a_pivot_column(payload):
    # an entry of the first row in the second pivot's column
    payload["rows"][0].append([payload["pivots"][1], "1/3"])


def _shift_the_basis(payload):
    payload["basis"] = payload["basis"][1:] + payload["pivots"][:1]


def _bump_a_dim(payload):
    payload["dims"][0][2] += 1


@pytest.mark.parametrize(
    "corrupt", (_drop_rows, _scale_a_pivot_entry, _fill_a_pivot_column, _shift_the_basis, _bump_a_dim)
)
@pytest.mark.parametrize("side", sorted(SIDES))
def test_corrupted_payload_is_rebuilt(side, corrupt, tmp_path, monkeypatch):
    cls, get = SIDES[side]
    clear_memos()
    built = get((1, 2, 3), ComponentStore(str(tmp_path)))
    (name,) = os.listdir(tmp_path)
    path = tmp_path / name
    original = path.read_bytes()
    payload = json.loads(original)
    corrupt(payload)
    path.write_text(json.dumps(payload))

    clear_memos()
    builds = []
    build = cls.ambient_and_span

    def counted(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(cls, "ambient_and_span", counted)
    rebuilt = get((1, 2, 3), ComponentStore(str(tmp_path)))
    assert len(builds) == 1
    assert path.read_bytes() == original
    assert rebuilt.monomials == built.monomials and rebuilt.basis == built.basis
    assert rebuilt.echelon.rows == built.echelon.rows and rebuilt.dims == built.dims
    for m in built.monomials:
        assert rebuilt.monomial_normal_form(m) == built.monomial_normal_form(m)

