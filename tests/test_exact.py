"""Coefficients are exact by construction: an ``int`` when integral, a
``Fraction`` otherwise, and never a ``float``.

``int / int`` is a float, so one true division without ``Fraction`` would
put inexact numbers into verdicts, memos or payloads.  The first test walks
everything the arity-4 suites and conjecture verdicts leave behind; the
others run non-integral coefficients through the same code.
"""

import json
import os
from fractions import Fraction
from types import SimpleNamespace
from weakref import WeakKeyDictionary

import pytest
from echelon_oracle import oracle_reduce, oracle_rref

from ramops import cooperad, dual, quotient
from ramops.cache import ComponentStore
from ramops.dual import conjecture_verdict
from ramops.graphalg import ARNOLD_PRESENTATION, AlgebraElement, GraphComponent, R_PRESENTATION, algebra_basis
from ramops.linalg import SparseMatrix, exact, rref
from ramops.operad import (
    OperadElement,
    Presentation,
    _Groebner,
    _rewrite_rules,
    component_basis,
    enumerate_tree_monomials,
)
from ramops.ram import RAM_SIGNATURE, presentation
from ramops.reports import canonical_json, make_report
from ramops.suites import run_suite


def _numbers(obj) -> dict[str, int]:
    """Counts of the ints, non-integral Fractions, integral Fractions and
    floats reachable from obj: through containers (keys too) and the
    attributes of objects, each object once."""
    counts = {"int": 0, "fraction": 0, "integral_fraction": 0, "float": 0}
    seen: set[int] = set()
    stack = [obj]
    while stack:
        o = stack.pop()
        kind = type(o)
        if kind is int:
            counts["int"] += 1
        elif kind is float:
            counts["float"] += 1
        elif kind is Fraction:
            counts["integral_fraction" if o.denominator == 1 else "fraction"] += 1
        elif kind in (bool, str, bytes, type(None)) or isinstance(o, type) or id(o) in seen:
            continue
        else:
            seen.add(id(o))
            if isinstance(o, dict):
                stack.extend(o.keys())
                stack.extend(o.values())
            elif isinstance(o, (list, tuple, set, frozenset)):
                stack.extend(o)
            else:
                stack.extend(getattr(o, "__dict__", {}).values())
                for cls in kind.__mro__:
                    stack.extend(getattr(o, s) for s in getattr(cls, "__slots__", ()) if hasattr(o, s))
    return counts


def _assert_exact(obj) -> None:
    counts = _numbers(obj)
    assert counts["float"] == 0 and counts["integral_fraction"] == 0, counts


def _assert_no_float(obj) -> None:
    counts = _numbers(obj)
    assert counts["float"] == 0, counts


def test_no_float_and_integral_means_int(tmp_path):
    quotient.clear_memos()
    store = ComponentStore(str(tmp_path))
    verdicts, tables = run_suite("all", 4, store)
    conjectures = [conjecture_verdict(n, store) for n in range(1, 5)]
    assert len(verdicts) == 809 and all(v["pass"] for v in verdicts)
    assert all(c["isomorphism"] for c in conjectures)
    report = json.loads(canonical_json(make_report("verify", {"n": 4}, verdicts, tables)))
    _assert_exact([verdicts, tables, conjectures, report])

    # every payload entry decodes as an int
    by_hash = {p.hash: p for p in (R_PRESENTATION, ARNOLD_PRESENTATION)}
    rows = []
    for name in os.listdir(tmp_path):
        payload = store.get(name[: -len(".json")])
        rows.append(quotient._decode(GraphComponent, by_hash[payload["presentation"]], payload)[1].rows)
    counts = _numbers(rows)
    assert counts["int"] > 0 and counts["int"] == sum(counts.values()), counts

    # every registered memo: the components (reducer rows, expansions, mask
    # indexes, d tables, rewritings), the rho forms, the cocomposition
    # records, the relation instances and spans
    for memo in (quotient._COMPONENTS, dual._RHO_MEMO, cooperad._TABLES):
        assert memo.get(store)
    # the d tables are walked with the forest components that own them
    for n in range(1, 5):
        tables = algebra_basis(R_PRESENTATION, tuple(range(1, n + 1)), "forest", store)._differentials
        assert sorted(tables) == ["down", "up"] and all(tables.values())
    memos = [memo.get(store) if isinstance(memo, WeakKeyDictionary) else memo for memo in quotient._MEMOS]
    counts = _numbers(memos)
    assert counts["int"] > 0 and counts["int"] == sum(counts.values()), counts


def test_exact_keeps_integral_values_as_int():
    assert type(exact(Fraction(6, 3))) is int and exact(Fraction(6, 3)) == 2
    assert type(exact(-4)) is int and exact("12") == 12 and type(exact("12")) is int
    assert exact(Fraction(7, 5)) == Fraction(7, 5) and exact("-7/5") == Fraction(-7, 5)
    for bad in (0.5, 1.0):
        try:
            exact(bad)
        except TypeError:
            continue
        raise AssertionError(f"exact accepted the float {bad!r}")


def test_non_integral_coefficients_stay_exact_on_both_sides():
    store = ComponentStore()
    # operad side: a half through scaled, the rewriting's reduce and rref
    ram = component_basis(presentation("ram"), (1, 2, 3), store)
    x = OperadElement.from_terms(
        (1, 2, 3), RAM_SIGNATURE, [(("L", ("L", 1, 2), 3), Fraction(1, 2)), (("E", ("G", 1, 3), 2), 3)]
    )
    doubled = x.scaled(2)
    assert doubled == OperadElement.from_terms(
        (1, 2, 3), RAM_SIGNATURE, [(("L", ("L", 1, 2), 3), 1), (("E", ("G", 1, 3), 2), 6)]
    )
    assert x.scaled(Fraction(4, 2)) == doubled and x.scaled("2") == doubled
    half = ram.coords(x)
    assert any(type(v) is Fraction for v in half.values())
    assert {s: 2 * v for s, v in half.items()} == ram.coords(doubled)
    _assert_no_float([half, ram.normal_form(x).terms])

    # algebra side: two thirds through the payload echelon's reduce
    forest = algebra_basis(R_PRESENTATION, (1, 2, 3), "forest", store)
    y = AlgebraElement.from_words(
        (1, 2, 3),
        R_PRESENTATION,
        [(Fraction(2, 3), (("a", 1, 2), ("b", 2, 3))), (-1, (("b", 1, 3),)), (5, ())],
    )
    thirds = forest.coords(y)
    assert any(type(v) is Fraction for v in thirds.values())
    assert {s: 3 * v for s, v in thirds.items()} == forest.coords(y.scaled(3))
    _assert_no_float(thirds)

    # rref and reduce on the mixed coordinates, against the Fraction oracle
    m = SparseMatrix(ram.dim, [half, ram.coords(doubled), {0: 3, 1: Fraction(5, 7)}, {1: 2}])
    oracle = oracle_rref(m)
    e = rref(m)
    assert e.pivots == oracle.pivots and e.rows == oracle.rows
    for row in e.rows:
        assert all(v and type(v) is (Fraction if v.denominator > 1 else int) for v in row.values())
    v = {0: Fraction(1, 3), 2: 4, ram.dim - 1: Fraction(-9, 4)}
    assert e.reduce(v) == oracle_reduce(oracle, v)
    _assert_no_float(e.reduce(v))


def test_non_integral_relation_coefficients_give_fraction_rules():
    lie = presentation("lie")
    (jacobi,) = lie.relations
    # the Jacobi relation halved: the same rules, integral
    halved = Presentation("lie_halved", lie.generators, [jacobi.scaled(Fraction(1, 2))])
    assert halved.hash != lie.hash
    assert _rewrite_rules(halved) == _rewrite_rules(lie)
    _assert_exact(_rewrite_rules(halved))
    # its leading term doubled: every rule coefficient is a half
    lead = ("L", ("L", 1, 2), 3)
    assert lead in jacobi.terms
    skewed = OperadElement(jacobi.labels, jacobi.gens, dict(jacobi.terms))
    skewed.terms[lead] *= 2
    # its rules are no Groebner basis, so the presentation is refused; the
    # rewriting still runs on the raw relation
    with pytest.raises(ValueError, match="lie_skewed"):
        Presentation("lie_skewed", lie.generators, [skewed])
    raw = SimpleNamespace(name="lie_skewed", gens=lie.gens, relations=(skewed,))
    raw.rules = _rewrite_rules(raw)
    coeffs = [c for terms in raw.rules.values() for _, signs in terms for c in signs]
    assert coeffs and all(type(c) is Fraction and c.denominator == 2 for c in coeffs)
    rw = _Groebner(raw, (1, 2, 3, 4))
    counts = _numbers([rw.normal_form(t) for t in enumerate_tree_monomials(raw.gens, (1, 2, 3, 4))])
    assert counts["float"] == 0 and counts["fraction"] > 0, counts
