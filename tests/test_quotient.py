import json
import os
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from echelon_oracle import oracle_reduce
from enumeration_oracle import colored_masks
from span_oracle import grafted_ideal_span, span_echelon

from ramops import linalg, operad, quotient
from ramops.cache import ComponentStore
from ramops.graphalg import (
    ARNOLD_PRESENTATION,
    GraphComponent,
    R_PRESENTATION,
    _relabel_monomial,
    algebra_basis,
    enumerate_graph_monomials,
    monomials_of_masks,
    relation_instances,
)
from ramops.labels import HASH, STAR, standard_labels
from ramops.operad import (
    Component,
    _Groebner,
    _map_tree,
    canonicalize,
    component_basis,
    enumerate_tree_monomials,
    one_step_witness,
    tree_bidegree,
    tree_to_json,
)
from ramops.quotient import clear_memos
from ramops.ram import PRESENTATION_NAMES, ResourceBoundError, operad_dims, presentation
from ramops.reports import dims_to_table

LABEL_SETS = ((1, 2, 3), (4, 5, 6), (1, "*", "#"))


def _liegriess(labels, store):
    return component_basis(presentation("liegriess"), labels, store)


def _forest(labels, store):
    return algebra_basis(R_PRESENTATION, labels, "forest", store)


SIDES = {"operad": (Component, _liegriess), "forest": (GraphComponent, _forest)}
# the sides with payloads: operad components are rewritings, never stored
STORED_SIDES = ("forest",)


def _check_slot_facts(comp):
    # bidegree and h-parity of each basis slot, the slots of each bidegree
    degrees = [comp.monomial_element(b).bidegree() for b in comp.basis]
    assert comp.degrees == degrees
    assert comp.odd == [h % 2 for h, _ in degrees]
    assert comp.dims == Counter(degrees)
    assert sorted(s for slots in comp.slots_by_degree.values() for s in slots) == list(range(comp.dim))
    for deg, slots in comp.slots_by_degree.items():
        assert slots == sorted(slots) and all(degrees[s] == deg for s in slots)


@pytest.mark.parametrize("side", STORED_SIDES)
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
        assert loaded.masks == built.masks
        assert loaded.basis == built.basis
        assert loaded.reducer.pivots == built.reducer.pivots
        assert loaded.reducer.rows == built.reducer.rows
        assert loaded.dims == built.dims
        _check_slot_facts(built)
        _check_slot_facts(loaded)
        assert loaded.degrees == built.degrees and loaded.odd == built.odd
        assert loaded.slots_by_degree == built.slots_by_degree
        for m in _ambient(built)[0]:
            coords = built.coords(built.monomial_element(m))
            assert loaded.coords(loaded.monomial_element(m)) == coords


def _ambient(comp):
    """The ambient monomials on the component's labels, the position of each,
    and the positions of its basis monomials: an algebra component keeps its
    ambient masks, the same on every label set of the size, an operad one
    only its basis."""
    if isinstance(comp, GraphComponent):
        return comp.masks, comp.position, comp.basis_positions
    monomials = enumerate_tree_monomials(comp.pres.gens, comp.labels)
    index = {m: i for i, m in enumerate(monomials)}
    return monomials, index.__getitem__, [index[b] for b in comp.basis]


def _relation_echelon(side, comp):
    """The RREF of the relations on the component's ambient positions: the
    stored echelon on the forest side, the grafted span's on the operad side,
    whose rewriting must be a change of basis of that quotient."""
    if side == "operad":
        return span_echelon(comp.pres, len(comp.labels))[1]
    return comp.reducer


def _congruent(ech, basis_positions, vec, coords) -> bool:
    """Whether vec minus its coordinates on the basis lies in the relations.
    Where the basis is the echelon's non-pivots (the forest side), this is
    the oracle's reduction of vec itself."""
    row = dict(vec)
    for slot, c in coords.items():
        linalg.bump(row, basis_positions[slot], -c)
    return not oracle_reduce(ech, row)


@pytest.mark.parametrize("labels", LABEL_SETS)
@pytest.mark.parametrize("side", sorted(SIDES))
def test_monomial_normal_form_matches_normal_form(side, labels):
    # the memoised expansion of each ambient monomial and the normal form of
    # its element agree, and the monomial is congruent to them
    comp = SIDES[side][1](labels, None)
    ech = _relation_echelon(side, comp)
    monomials, position, basis_positions = _ambient(comp)
    for m in monomials:
        expansion = dict(comp.slot_expansion(m))
        assert _congruent(ech, basis_positions, {position(m): Fraction(1)}, expansion)
        expected = {comp.basis[s]: c for s, c in expansion.items()}
        assert comp.normal_form(comp.monomial_element(m)).terms == expected
        if m in comp.basis:
            assert expected == {m: 1}


def _relation_elements(side, comp):
    if side == "operad":
        return grafted_ideal_span(comp.pres, comp.labels)
    return [rel for _, rel in relation_instances(comp.pres, comp.labels, "forest")]


@pytest.mark.parametrize("n", (1, 2, 3, 4))
@pytest.mark.parametrize("side", sorted(SIDES))
def test_coords_match_oracle_reduce(side, n):
    # coords folds memoised monomial expansions; the oracle reduces the
    # whole vector against every pivot in increasing order
    shifted = tuple(range(4, 4 + n))
    ech = None
    for labels in (standard_labels(n), shifted) + _place_holder_label_sets(n):
        comp = SIDES[side][1](labels, None)
        ech = ech or _relation_echelon(side, comp)
        monomials, position, basis_positions = _ambient(comp)
        elements = [comp.monomial_element(m) for m in monomials]
        relations = _relation_elements(side, comp)
        assert relations or n < 3
        for x in elements + relations:
            vec = {position(m): c for m, c in x.terms.items()}
            coords = comp.coords(x)
            assert _congruent(ech, basis_positions, vec, coords)
            assert list(coords) == sorted(coords)
        assert not any(comp.coords(x) for x in relations)


@pytest.mark.parametrize("side", STORED_SIDES)
def test_each_store_gets_its_own_payload(side, tmp_path):
    get = SIDES[side][1]
    first, second = tmp_path / "first", tmp_path / "second"
    get((1, 2, 3), ComponentStore(str(first)))
    get((1, 2, 3), ComponentStore(str(second)))
    assert os.listdir(first) and sorted(os.listdir(second)) == sorted(os.listdir(first))


def test_a_composite_reads_and_writes_no_payload(tmp_path, monkeypatch):
    ram = presentation("ram")
    clear_memos()
    built = component_basis(ram, (1, 2, 3), ComponentStore(str(tmp_path)))
    # it reads liegriess through liegriess's own rewriting, not its components
    assert os.listdir(tmp_path) == []

    clear_memos()
    keys = []
    get = ComponentStore.get

    def counted_get(self, key):
        keys.append(key)
        return get(self, key)

    def no_rref(span):
        raise AssertionError("a composite must not be eliminated")

    monkeypatch.setattr(ComponentStore, "get", counted_get)
    monkeypatch.setattr(linalg, "rref", no_rref)
    rebuilt = component_basis(ram, (1, 2, 3), ComponentStore(str(tmp_path)))
    assert keys == [] and os.listdir(tmp_path) == []
    assert rebuilt is not built and rebuilt.basis == built.basis and rebuilt.dims == built.dims
    for m in enumerate_tree_monomials(ram.gens, (1, 2, 3)):
        assert rebuilt.slot_expansion(m) == built.slot_expansion(m)


def test_every_operad_component_builds_without_elimination_or_store(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an operad component must not be eliminated, read, written or transported")

    monkeypatch.setattr(linalg, "rref", refuse)
    monkeypatch.setattr(ComponentStore, "get", refuse)
    monkeypatch.setattr(ComponentStore, "put", refuse)
    # a composite reads its factor on every block from one rewriting on {1..n}
    monkeypatch.setattr(Component, "transport", refuse)
    clear_memos()
    store = ComponentStore()
    comps = []
    with monkeypatch.context() as mp:
        # a build forms normal trees only, never the ambient trees
        mp.setattr(operad, "enumerate_tree_monomials", refuse)
        for name in PRESENTATION_NAMES:
            for n in (1, 2, 3, 4):
                comps.append(component_basis(presentation(name), standard_labels(n), store))
    for comp in comps:
        for m in enumerate_tree_monomials(comp.pres.gens, comp.labels):
            comp.slot_expansion(m)  # the normal form of every tree
        assert [comp.slot_expansion(b) for b in comp.basis] == [((s, 1),) for s in range(comp.dim)]


@pytest.mark.parametrize("name", ["lie", "sgriess", "liegriess"])
def test_factor_normal_trees_on_every_block_match_the_transported_components(name):
    # the composite takes its factors from the rewriting on {1..n}; the
    # components of F on each block, transported from {1..|B|}, are the oracle
    pres = presentation(name)
    labels = standard_labels(5)
    normal_trees = _Groebner(pres, labels).normal_trees
    blocks = [block for k in range(1, 6) for block in combinations(labels, k)]
    assert len(blocks) == 31 and sorted(normal_trees) == sorted(blocks)
    store = ComponentStore()
    for block in blocks:
        assert normal_trees[block] == component_basis(pres, block, store).basis


def test_resource_bound_reports_arities_built_in_the_store():
    store = ComponentStore()
    built = {k: operad_dims("ram", k, store) for k in (1, 2, 3)}
    with pytest.raises(ResourceBoundError) as info:
        operad_dims("ram", 4, store, max_arity=3)
    partial = info.value.partial
    assert partial["max_arity"] == 3
    assert partial["computed_arities"] == {k: dims_to_table(d) for k, d in built.items()}
    # a component on another label set is relabeled from the one on {1..4},
    # which the memo then holds too: arity 4 is listed once, with its dims
    component_basis(presentation("ram"), (2, 5, 7, 9), store)
    with pytest.raises(ResourceBoundError) as info:
        operad_dims("ram", 5, store, max_arity=3)
    computed = info.value.partial["computed_arities"]
    assert list(computed) == [1, 2, 3, 4]
    assert computed[4] == dims_to_table(operad_dims("ram", 4, ComponentStore()))


def test_a_component_keeps_one_list_and_one_index():
    # the standard operad component holds its rewriting's basis list and no
    # ambient
    store = ComponentStore()
    ram = presentation("ram")
    std = component_basis(ram, standard_labels(4), store)
    assert std.basis is std.rewriting.basis
    for attr in ("masks", "index", "basis_positions", "reducer", "position", "expansion_at"):
        assert not hasattr(std, attr) and not hasattr(std.rewriting, attr), attr
    other = component_basis(ram, (2, 5, STAR, HASH), store)
    assert other.labels == (2, 5, STAR, HASH)
    assert component_basis(ram, (5, HASH, 2, STAR), store) is other
    forest = _forest((1, 2, 3), store)
    moved = _forest((4, 5, 6), store)
    # the forest ambient is one list of masks with one index over it: no
    # list of monomials is kept, and no index keyed by them
    assert moved.masks is forest.masks and moved.index is forest.index
    assert forest.index == {c: i for i, c in enumerate(forest.masks)}
    ambient_sized = {a for a, v in vars(forest).items() if type(v) in (list, dict) and len(v) == len(forest.masks)}
    assert ambient_sized == {"masks", "index"}
    assert _forest((1, 2, 3), store) is forest
    assert _forest((4, 5, 6), store) is _forest((6, 5, 4), store)
    # a relabeled operad component has its own labels, basis and map back
    # onto {1..n}; a forest one its own labels alone (no map back, see
    # test_a_relabeled_graph_component_differs_in_its_labels_alone); every
    # other attribute is the standard one's object
    assert other._back == dict(zip(other.labels, std.labels)) and std._back is None
    assert set(vars(other)) == set(vars(std)) | {"_back"}
    assert not hasattr(forest, "_back") and not hasattr(moved, "_back")
    assert other.labels != std.labels and other.basis != std.basis
    for attr, value in vars(other).items():
        if attr not in ("labels", "basis", "_back"):
            assert value is vars(std)[attr], attr


@pytest.mark.parametrize("mode", ("forest", "full"))
@pytest.mark.parametrize("pres", (R_PRESENTATION, ARNOLD_PRESENTATION), ids=("R", "arnold"))
def test_a_relabeled_graph_component_differs_in_its_labels_alone(pres, mode):
    # a monomial is its colored mask on every label set of the size, so
    # nothing is moved: no basis, encoder or decoded ambient of its own
    store = ComponentStore()
    for n in (1, 2, 3, 4):
        std = algebra_basis(pres, standard_labels(n), mode, store)
        for labels in ((2, 5, 9, 11)[:n], standard_labels(n)[:-1] + (STAR,), _place_holder_label_sets(n)[-1]):
            moved = algebra_basis(pres, labels, mode, store)
            assert moved is not std and moved.labels == labels != std.labels
            assert set(vars(moved)) == set(vars(std))
            for attr, value in vars(moved).items():
                if attr != "labels":
                    assert value is vars(std)[attr], attr
    for attr in ("encode", "transport", "monomials"):
        assert not hasattr(GraphComponent, attr) and not hasattr(std, attr), attr


def test_a_relabeled_forest_component_looks_up_without_transport():
    # a monomial's colored mask on (1, 2, *) is its mask on {1, 2, 3}, so
    # the relabeled component finds it with nothing mapped back
    store = ComponentStore()
    labels = (1, 2, STAR)
    std, moved = _forest(standard_labels(3), store), _forest(labels, store)
    ambient = colored_masks(labels, enumerate_graph_monomials(R_PRESENTATION, labels, "forest"))
    cycles = set(colored_masks(labels, enumerate_graph_monomials(R_PRESENTATION, labels, "full"))) - set(ambient)
    assert ambient == std.masks
    for i, m in enumerate(ambient):
        assert moved.position(m) == std.position(m) == i
        assert moved.slot_expansion(m) == std.slot_expansion(m)
    for slot, b in enumerate(moved.basis):
        assert moved.slot(b) == std.slot(b) == slot
    assert cycles and all(moved.position(m) is None for m in cycles)


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
            for m, t in zip(comp.basis, moved.basis):
                assert canonicalize(_map_tree(m, phi), comp.pres.gens) == (1, t)
                assert canonicalize(t, comp.pres.gens) == (1, t)
            # nf of a tree moved to the labels is the moved nf of the tree
            for m in enumerate_tree_monomials(comp.pres.gens, comp.labels):
                assert moved.slot_expansion(_map_tree(m, phi)) == comp.slot_expansion(m)
        for comp in graph_side:
            moved = algebra_basis(comp.pres, labels, comp.mode)
            ambient = colored_masks(labels, enumerate_graph_monomials(comp.pres, labels, comp.mode))
            assert ambient == comp.masks
            for m in ambient:
                # moved to the labels, a monomial keeps its mask, with sign +1
                assert _relabel_monomial(comp.pres, comp.labels, m, phi, labels) == (1, m)
                assert _relabel_monomial(comp.pres, labels, m, {a: a for a in labels}, labels) == (1, m)
                assert moved.position(m) == comp.position(m)
                assert moved.slot_expansion(m) == comp.slot_expansion(m)
            if comp.mode == "forest":
                # a full-mode cycle is outside the forest ambient on every
                # label set: theta splits it unstored
                cycles = set(colored_masks(labels, enumerate_graph_monomials(comp.pres, labels, "full"))) - set(ambient)
                assert bool(cycles) == (n >= 3)
                assert all(moved.position(m) is None for m in cycles)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_transport_is_the_plain_map_of_labels(n):
    # on label sets with gaps and place-holders too, an order-preserving
    # relabeling of a canonical monomial is canonical with sign +1, so a
    # relabeled component only maps the labels of its monomials
    gapped = (3, 5, STAR, HASH)
    for labels in (gapped[:n], gapped[-n:]):
        phi = dict(zip(standard_labels(n), labels))
        for name in PRESENTATION_NAMES:
            comp = component_basis(presentation(name), standard_labels(n))
            moved = component_basis(comp.pres, labels)
            assert len(moved.basis) == len(comp.basis)
            for m, t in zip(comp.basis, moved.basis):
                assert t == _map_tree(m, phi)
                assert canonicalize(t, comp.pres.gens) == (1, t)
        for pres in (R_PRESENTATION, ARNOLD_PRESENTATION):
            for mode in ("forest", "full"):
                comp = algebra_basis(pres, standard_labels(n), mode)
                moved = algebra_basis(pres, labels, mode)
                ambient = enumerate_graph_monomials(pres, labels, mode)
                assert monomials_of_masks(pres, labels, comp.masks) == ambient
                for m in comp.masks:
                    assert _relabel_monomial(pres, comp.labels, m, phi, labels) == (1, m)
                assert moved.basis is comp.basis


@pytest.mark.parametrize("side", STORED_SIDES)
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
    assert current.masks == other.masks and current.reducer.rows == other.reducer.rows


# Payload layout (``quotient._encode``): a row is one flat list, its columns
# in increasing order and then its entries, and a monomial is its colored
# mask.  The operad side applies each corruption to the old operad layout
# of ``_parent_payload``, which must not be read either way, so the
# corruptions edit by index only.


def _drop_rows(payload):
    del payload["rows"]


def _rows_as_an_object(payload):
    # the decoder pops the rows off a list, which an object is not
    payload["rows"] = {str(k): row for k, row in enumerate(payload["rows"])}


def _scale_a_pivot_entry(payload):
    row = next(r for r in payload["rows"] if len(r) > 2)
    row[len(row) // 2] = 2  # the leading 1 of the row


def _fill_a_pivot_column(payload):
    # an entry of the first row in the second pivot's column, past the
    # row's last column (on R(3) the first row ends before that pivot)
    row = payload["rows"][0]
    at = len(row) // 2
    row[at:at] = [payload["pivots"][1]]
    row.append("1/3")


def _shift_the_basis(payload):
    payload["basis"] = payload["basis"][1:] + payload["pivots"][:1]


def _bump_a_dim(payload):
    payload["dims"][0][2] += 1


def _truncate_a_monomial(payload):
    # the last mask gains a letter past the two colors' pairs of R, which
    # its monomial, read one color's pairs at a time, would not show (the
    # old operad layout holds a tree there, which the mask replaces)
    n = payload["n"]
    last = payload["monomials"][-1]
    payload["monomials"][-1] = (last if isinstance(last, int) else 0) | 1 << n * (n - 1)


def _odd_length_row(payload):
    # an entry past the row's last, which pairing columns with entries drops
    payload["rows"][0].append(1)


def _repeat_a_column(payload):
    # the last column of the row repeats the one before it, so a dict of
    # the row keeps a single entry there
    row = payload["rows"][0]
    k = len(row) // 2
    row[k - 1] = row[k - 2]


def _swap_two_columns(payload):
    # two columns trade places with their entries: the same row, out of order
    row = payload["rows"][0]
    k = len(row) // 2
    row[1], row[2], row[k + 1], row[k + 2] = row[2], row[1], row[k + 2], row[k + 1]


def _float_column(payload):
    # equal to the pivot, so only its type tells it apart
    payload["rows"][0][0] = payload["pivots"][0] * 1.0


def _float_entry(payload):
    payload["rows"][0][-1] = 1.5


def _true_leading_entry(payload):
    # JSON true equals 1, so only the entry's type tells it apart
    row = payload["rows"][0]
    row[len(row) // 2] = True


def _integral_entry_as_text(payload):
    row = payload["rows"][0]
    row[len(row) // 2] = "1"


def _repeat_a_mask(payload):
    payload["monomials"][-1] = payload["monomials"][-2]


CORRUPTIONS = (
    _drop_rows,
    _rows_as_an_object,
    _scale_a_pivot_entry,
    _fill_a_pivot_column,
    _shift_the_basis,
    _bump_a_dim,
    _truncate_a_monomial,
    _odd_length_row,
    _repeat_a_column,
    _swap_two_columns,
    _float_column,
    _float_entry,
    _true_leading_entry,
    _integral_entry_as_text,
    _repeat_a_mask,
)


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
@pytest.mark.parametrize("side", sorted(SIDES))
def test_corrupted_payload_is_rebuilt(side, corrupt, tmp_path, monkeypatch):
    # written as is, the corrupted payload fails its checksum
    _check_corrupted_payload_is_rebuilt(side, corrupt, False, tmp_path, monkeypatch)


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
@pytest.mark.parametrize("side", sorted(SIDES))
def test_rehashed_corrupted_payload_is_rebuilt(side, corrupt, tmp_path, monkeypatch):
    # written through ``put``, its checksum holds and only ``_decode`` can
    # reject it
    _check_corrupted_payload_is_rebuilt(side, corrupt, True, tmp_path, monkeypatch)


def _check_corrupted_payload_is_rebuilt(side, corrupt, rehash, tmp_path, monkeypatch):
    if side == "operad":
        _check_parent_payload_is_never_read(corrupt, rehash, tmp_path, monkeypatch)
        return
    cls, get = SIDES[side]
    clear_memos()
    built = get((1, 2, 3), ComponentStore(str(tmp_path)))
    (name,) = os.listdir(tmp_path)
    path = tmp_path / name
    original = path.read_bytes()
    payload = json.loads(original)
    corrupt(payload)
    if rehash:
        del payload["sha256"]
        ComponentStore(str(tmp_path)).put(name[: -len(".json")], payload)
    else:
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
    assert rebuilt.masks == built.masks and rebuilt.basis == built.basis
    assert rebuilt.reducer.rows == built.reducer.rows and rebuilt.dims == built.dims
    for m in built.masks:
        assert rebuilt.slot_expansion(m) == built.slot_expansion(m)


@pytest.mark.parametrize("source,target", [("forest-n3", "forest-n4"), ("full-n3", "forest-n3")])
def test_payload_under_another_key_is_rebuilt(source, target, tmp_path, monkeypatch):
    # a payload copied to another key decodes and passes every check of its
    # own: the arity-3 table would be read as arity 4, and a full-mode
    # payload has the forest dims; each must be rebuilt from its header
    mode, n = target.split("-n")
    labels = standard_labels(int(n))
    cold = algebra_basis(R_PRESENTATION, labels, mode, ComponentStore())
    clear_memos()
    store = ComponentStore(str(tmp_path))
    algebra_basis(R_PRESENTATION, standard_labels(3), source.split("-")[0], store)
    (name,) = os.listdir(tmp_path)
    assert name.endswith(f"-{source}.json")
    copy = tmp_path / name.replace(source, target)
    copy.write_bytes((tmp_path / name).read_bytes())

    clear_memos()
    builds = []
    build = GraphComponent.ambient_and_span

    def counted(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(GraphComponent, "ambient_and_span", counted)
    rebuilt = algebra_basis(R_PRESENTATION, labels, mode, ComponentStore(str(tmp_path)))
    assert len(builds) == 1
    assert rebuilt.masks == cold.masks and rebuilt.basis == cold.basis and rebuilt.dims == cold.dims
    assert json.loads(copy.read_bytes())["n"] == int(n)


def _parent_payload(pres, n):
    """The payload that engines eliminating the grafted span wrote for an
    operad component, under the key and ``ENGINE_FORMAT`` of today's engine;
    its basis is the span's non-pivots, not the normal trees."""
    monomials, ech = span_echelon(pres, n)
    pivots = set(ech.pivots)
    basis = [i for i in range(len(monomials)) if i not in pivots]
    dims = Counter(tree_bidegree(monomials[i], pres.gens) for i in basis)
    return {
        "kind": "operad-component",
        "presentation": pres.hash,
        "n": n,
        "monomials": [tree_to_json(m) for m in monomials],
        "pivots": list(ech.pivots),
        "rows": [[[col, str(val)] for col, val in sorted(row.items())] for row in ech.rows],
        "basis": basis,
        "dims": sorted([h, w, d] for (h, w), d in dims.items()),
    }


def _check_parent_payload_is_never_read(corrupt, rehash, tmp_path, monkeypatch):
    # operad components have no payload: one left at their key by an older
    # engine, damaged or not, must not be read, so it cannot mix bases
    pres = presentation("liegriess")
    clear_memos()
    built = _liegriess((1, 2, 3), ComponentStore(str(tmp_path)))
    assert os.listdir(tmp_path) == []
    payload = _parent_payload(pres, 3)
    assert payload["basis"] != _ambient(built)[2]
    corrupt(payload)
    key = f"{quotient._prefix(Component, pres, {})}-n3"
    path = tmp_path / f"{key}.json"
    if rehash:
        ComponentStore(str(tmp_path)).put(key, payload)
    else:
        path.write_text(json.dumps(payload))
    original = path.read_bytes()

    clear_memos()
    keys = []
    get = ComponentStore.get

    def counted_get(self, key):
        keys.append(key)
        return get(self, key)

    monkeypatch.setattr(ComponentStore, "get", counted_get)
    rebuilt = _liegriess((1, 2, 3), ComponentStore(str(tmp_path)))
    assert keys == [] and path.read_bytes() == original
    assert rebuilt is not built and rebuilt.basis == built.basis and rebuilt.dims == built.dims
    for m in enumerate_tree_monomials(pres.gens, (1, 2, 3)):
        assert rebuilt.slot_expansion(m) == built.slot_expansion(m)


def test_edited_non_pivot_entry_is_rebuilt(tmp_path, monkeypatch):
    # an edit that keeps the echelon reduced passes every invariant of
    # ``_decode``; the payload checksum is what turns it into a rebuild
    clear_memos()
    built = _forest((1, 2, 3), ComponentStore(str(tmp_path)))
    (name,) = os.listdir(tmp_path)
    path = tmp_path / name
    original = path.read_bytes()
    payload = json.loads(original)
    pivots = set(payload["pivots"])
    row = next(r for r in payload["rows"] if any(col not in pivots for col in r[: len(r) // 2]))
    k = len(row) // 2
    # the entry of the row's first non-pivot column, an int
    entry = k + next(i for i, col in enumerate(row[:k]) if col not in pivots)
    assert type(row[entry]) is int
    rows_at = original.index(b'"rows":')
    old = json.dumps(row, separators=(",", ":")).encode()
    new = json.dumps(row[:entry] + ["7/5"] + row[entry + 1 :], separators=(",", ":")).encode()
    at = original.index(old, rows_at)
    edited = original[:at] + new + original[at + len(old) :]
    path.write_bytes(edited)
    edited_payload = json.loads(edited)
    decoded = quotient._decode(GraphComponent, R_PRESENTATION, edited_payload)
    assert decoded is not None
    # the edited entry decodes as a Fraction, every other one as an int
    assert [v for r in decoded[1].rows for v in r.values() if type(v) is not int] == [Fraction(7, 5)]

    clear_memos()
    builds = []
    build = GraphComponent.ambient_and_span

    def counted(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(GraphComponent, "ambient_and_span", counted)
    rebuilt = _forest((1, 2, 3), ComponentStore(str(tmp_path)))
    assert len(builds) == 1
    assert path.read_bytes() == original
    for m in built.masks:
        expected = built.normal_form(built.monomial_element(m))
        assert rebuilt.normal_form(rebuilt.monomial_element(m)) == expected


def test_echelon_with_a_fraction_round_trips_through_a_payload(tmp_path, monkeypatch):
    # every coefficient met so far is integral; a payload must still carry a
    # non-integral entry exactly, as its "p/q" string, and read it back
    clear_memos()
    built = _forest((1, 2, 3), ComponentStore())
    ech = built.reducer
    rows = [dict(row) for row in ech.rows]
    row = next(r for r in rows if any(col not in ech._pivot_pos for col in r))
    row[max(row)] = Fraction(-7, 5)
    fields = {"mode": "forest"}
    edited = GraphComponent(
        R_PRESENTATION,
        built.labels,
        built.masks,
        linalg.Echelon(ech.ncols, ech.pivots, rows, ech._pivot_pos),
        built.basis_positions,
        **fields,
    )
    store = ComponentStore(str(tmp_path))
    header = quotient._header(GraphComponent, R_PRESENTATION, 3, fields)
    store.put(f"{quotient._prefix(GraphComponent, R_PRESENTATION, fields)}-n3", {**header, **quotient._encode(edited)})
    (name,) = os.listdir(tmp_path)
    assert b'"-7/5"' in (tmp_path / name).read_bytes()

    clear_memos()

    def no_build(*args, **kwargs):
        raise AssertionError("a stored component must be loaded, not built")

    monkeypatch.setattr(GraphComponent, "ambient_and_span", no_build)
    loaded = _forest((1, 2, 3), store)
    assert loaded.reducer.pivots == ech.pivots and loaded.reducer.rows == rows
    assert [v for r in loaded.reducer.rows for v in r.values() if type(v) is not int] == [Fraction(-7, 5)]
    assert loaded.masks == built.masks
    assert loaded.basis == built.basis and loaded.dims == built.dims


@pytest.mark.parametrize("name", ("liegriess", "ram"))
def test_ideal_witness_checks_basis_monomials(name, monkeypatch):
    # the normal form kills the ideal; once a basis tree's expansion is
    # scaled by 2, its own row is the only one that survives, so a witness
    # search that skipped basis trees would find nothing: every basis tree
    # of arity >= 2 is a one-step tree
    pres, store = presentation(name), ComponentStore()
    nf = {}

    def image(t, comp):  # nf as it was before the expansion was scaled
        if t not in nf:
            nf[t] = dict(comp.slot_expansion(t))
        return nf[t]

    assert one_step_witness(pres, 4, image, store) is None
    comp = component_basis(pres, (1, 2, 3, 4), store)
    b = comp.basis[len(comp.basis) // 2]
    monkeypatch.setitem(comp.rewriting._forms, b, ((comp.slot(b), Fraction(2)),))
    assert one_step_witness(pres, 4, image, store) == b


@pytest.mark.parametrize("labels", ((1, 2, 3), (2, 5, 7)))
@pytest.mark.parametrize("name", ("liegriess", "ram"))
def test_an_operad_component_refuses_a_tree_off_its_labels(name, labels):
    # a normal tree on a smaller block of the labels has a normal form, but
    # no slot: both lookups refuse it, on {1..n} and on a relabeled copy,
    # and still read every basis tree as its own slot
    comp = component_basis(presentation(name), labels, ComponentStore())
    phi = dict(zip(standard_labels(3), labels))
    smaller = [
        _map_tree(t, phi) for block, trees in comp.rewriting.normal_trees.items() if len(block) < 3 for t in trees
    ]
    assert smaller
    for t in smaller:
        with pytest.raises(KeyError):
            comp.slot(t)
        with pytest.raises(KeyError):
            comp.slot_expansion(t)
    for s, b in enumerate(comp.basis):
        assert comp.slot(b) == s and comp.slot_expansion(b) == ((s, 1),)


@pytest.mark.parametrize("mode", ("forest", "full"))
def test_a_graph_component_refuses_a_mask_off_its_basis(mode):
    # slot refuses an ambient mask outside the basis, and both lookups a
    # mask outside the ambient: one of the arity-4 ambient
    store = ComponentStore()
    comp = algebra_basis(R_PRESENTATION, (1, 2, 3), mode, store)
    off_basis = [m for m in comp.masks if m not in comp.basis]
    larger = algebra_basis(R_PRESENTATION, (1, 2, 3, 4), mode, store)
    off_ambient = [m for m in larger.masks if comp.position(m) is None]
    assert off_basis and off_ambient
    for m in off_basis + off_ambient:
        with pytest.raises(KeyError):
            comp.slot(m)
    for m in off_ambient:
        with pytest.raises(KeyError):
            comp.slot_expansion(m)
    for s, b in enumerate(comp.basis):
        assert comp.slot(b) == s and comp.slot_expansion(b) == ((s, 1),)


def test_both_sides_share_one_tensor_type():
    # the cocomposition of R and the coproduct of ram land in one class, whose
    # labels are its factors' labels, and both tensor normal forms return it
    # as the shared normal form of the input terms
    from cooperad_oracle import raw_theta

    from ramops import cooperad, ram

    store = ComponentStore()
    I, J = (1, 3), (2, 4)
    union = algebra_basis(R_PRESENTATION, (1, 2, 3, 4), "forest", store)
    x = union.monomial_element(union.basis[-1]) - union.monomial_element(union.basis[1])
    comps = (
        algebra_basis(R_PRESENTATION, (1, 3, STAR), "forest", store),
        algebra_basis(R_PRESENTATION, J, "forest", store),
    )
    raw = raw_theta(R_PRESENTATION, I, J, x)
    reduced = cooperad.theta(R_PRESENTATION, I, J, x, STAR, store)
    comp = component_basis(presentation("ram"), (1, 2, 3), store)
    el = comp.monomial_element(comp.basis[-1])
    delta = ram.coproduct(el)
    assert type(reduced) is type(delta) is type(raw) is quotient.Tensor
    assert reduced.labels == tuple(f.labels for f in reduced.factors) == ((1, 3, STAR), J)
    assert delta.labels == tuple(f.labels for f in delta.factors) == (el.labels, el.labels)
    assert cooperad.tensor_normal_form is not ram.tensor_normal_form
    nf = cooperad.tensor_normal_form(raw, *comps)
    assert type(nf) is quotient.Tensor and nf.terms == quotient.tensor_normal_form(raw.terms, comps)
    assert nf == reduced and not nf.is_zero()
    nf = ram.tensor_normal_form(delta, comp)
    assert type(nf) is quotient.Tensor and nf.terms == quotient.tensor_normal_form(delta.terms, (comp, comp))
    assert nf.labels == delta.labels and not nf.is_zero()
