import random
from fractions import Fraction

import pytest
from echelon_oracle import oracle_reduce, oracle_rref
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramops.cooperad import TensorAlgebraElement
from ramops.graphalg import R_PRESENTATION, AlgebraElement
from ramops.labels import STAR
from ramops.linalg import (
    ONE,
    Echelon,
    SparseMatrix,
    quotient_basis,
    rank,
    rref,
    vec_add_scaled,
)
from ramops.operad import OperadElement
from ramops.ram import RAM_SIGNATURE, coproduct


def from_dense(rows):
    m = SparseMatrix(max((len(r) for r in rows), default=0))
    for r in rows:
        m.add_row({i: Fraction(x) for i, x in enumerate(r) if x})
    return m


def transpose(m):
    t = SparseMatrix(len(m.rows))
    cols = {}
    for i, row in enumerate(m.rows):
        for c, v in row.items():
            cols.setdefault(c, {})[i] = v
    t.rows.extend(cols[c] for c in range(m.ncols) if c in cols)
    return t


def dense(m, ncols):
    out = []
    for row in m.rows:
        out.append([row.get(c, Fraction(0)) for c in range(ncols)])
    return out


def ech_dense(e: Echelon):
    return [[row.get(c, Fraction(0)) for c in range(e.ncols)] for row in e.rows]


def test_rref_rank_one():
    m = from_dense([[1, 2], [2, 4]])
    e = rref(m)
    assert e.pivots == [0]
    assert ech_dense(e) == [[1, 2]]


def test_rref_identity_fixed():
    m = from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    e = rref(m)
    assert e.pivots == [0, 1, 2]
    assert ech_dense(e) == dense(m, 3)


def test_rref_swap_case():
    # hand elimination: [[0,1],[1,0]] reduces to the identity
    m = from_dense([[0, 1], [1, 0]])
    e = rref(m)
    assert e.pivots == [0, 1]
    assert ech_dense(e) == [[1, 0], [0, 1]]


def test_rank_trivial_cases():
    assert rank(SparseMatrix(4)) == 0
    m = from_dense([[1 if i == j else 0 for j in range(5)] for i in range(5)])
    assert rank(m) == 5


def test_quotient_basis_trivial():
    basis, e = quotient_basis(SparseMatrix(3), 3)
    assert basis == [0, 1, 2]
    assert e.rank == 0
    ident = from_dense([[1, 0], [0, 1]])
    basis, e = quotient_basis(ident, 2)
    assert basis == []


def test_reduce_membership_and_idempotence():
    m = from_dense([[1, 2, 0], [0, 1, 1]])
    e = rref(m)
    v = {0: Fraction(1), 1: Fraction(2)}  # in the row space
    assert e.reduce(v) == {}
    w = {2: Fraction(5)}
    reduced = e.reduce(w)
    assert all(c not in e.pivots for c in reduced)
    assert e.reduce(reduced) == reduced


def test_reduce_no_pivot_support_unchanged():
    m = from_dense([[1, 0, 0]])
    e = rref(m)
    v = {1: Fraction(3), 2: Fraction(-2)}
    assert e.reduce(v) == v


def _random_matrix(rng, nrows, ncols, density=0.5):
    m = SparseMatrix(ncols)
    for _ in range(nrows):
        row = {
            c: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for c in range(ncols)
            if rng.random() < density
        }
        m.add_row(row)
    return m


def test_rank_equals_rank_of_transpose():
    rng = random.Random(7)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert rank(m) == rank(transpose(m))


def test_difference_lies_in_row_space():
    rng = random.Random(11)
    for _ in range(20):
        m = _random_matrix(rng, 5, 6)
        e = rref(m)
        v = {c: Fraction(rng.randint(-5, 5)) for c in range(6) if rng.random() < 0.7}
        diff = dict(v)
        vec_add_scaled(diff, e.reduce(v), Fraction(-1))
        assert not e.reduce(diff)


def test_row_space_preserved_by_rref():
    rng = random.Random(3)
    for _ in range(15):
        m = _random_matrix(rng, 4, 5)
        e = rref(m)
        # every original row reduces to zero against the echelon
        for row in m.rows:
            assert e.reduce(row) == {}
        # every echelon row lies in the span of the original rows
        oracle = oracle_rref(m)
        for row in e.rows:
            assert oracle.reduce(row) == {}
        assert rank(m) == e.rank


def assert_canonical(e: Echelon) -> None:
    assert all(a < b for a, b in zip(e.pivots, e.pivots[1:]))
    assert len(e.rows) == len(e.pivots)
    for p, row in zip(e.pivots, e.rows):
        assert min(row) == p and row[p] == 1
        assert all(type(v) is Fraction and v for v in row.values())
        assert max(row) < e.ncols
    for p in e.pivots:
        assert [row for row in e.rows if p in row] == [e.rows[e._pivot_pos[p]]]


_small = st.integers(-6, 6)
_large = st.integers(-(10**40), 10**40)
_entry = st.builds(
    Fraction,
    st.one_of(_small, _large).filter(bool),
    st.one_of(st.integers(1, 4), st.integers(1, 10**30)),
)


@st.composite
def sparse_matrices(draw):
    ncols = draw(st.integers(0, 9))
    cols = st.integers(0, ncols - 1) if ncols else st.nothing()
    row = st.dictionaries(cols, _entry, max_size=min(ncols, 4))
    rows = draw(st.lists(row, max_size=10))
    # duplicates and multiples of earlier rows
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        src = draw(st.sampled_from(rows))
        scale = draw(_entry)
        rows.append({c: v * scale for c, v in src.items()})
    return SparseMatrix(ncols, draw(st.permutations(rows)))


@settings(max_examples=300, deadline=None)
@given(sparse_matrices(), st.dictionaries(st.integers(0, 8), _entry, max_size=5))
@example(SparseMatrix(0), {})
@example(SparseMatrix(3, [{}, {}]), {1: Fraction(2)})
def test_rref_matches_insert_oracle(m, vec):
    e = rref(m)
    oracle = oracle_rref(m)
    assert e.pivots == oracle.pivots
    assert e.rows == oracle.rows
    assert_canonical(e)
    for row in m.rows:
        assert e.reduce(row) == {}
    v = {c: x for c, x in vec.items() if c < m.ncols}
    assert e.reduce(v) == oracle_reduce(oracle, v)


# one element of each Combination kind, another of the same kind on other
# labels, and its repr as the kind printed it before sharing the base class
# (None: the kind had no repr of its own)
COMBINATIONS = {
    "operad": lambda: (
        OperadElement.from_terms(
            (1, 2, 3),
            RAM_SIGNATURE,
            [(("L", ("G", 1, 2), 3), Fraction(1, 2)), (("E", 3, ("L", 1, 2)), -3)],
        ),
        OperadElement.generator(RAM_SIGNATURE, "L", 1, 2),
        "-3*E(L(1,2),3) + 1/2*L(G(1,2),3)",
    ),
    "algebra": lambda: (
        AlgebraElement.from_words(
            (1, 2, 3),
            R_PRESENTATION,
            [(Fraction(2, 3), (("a", 1, 2), ("b", 2, 3))), (-1, (("b", 1, 3),)), (5, ())],
        ),
        AlgebraElement.unit((1, 2), R_PRESENTATION),
        "5*1 - 1*b[1,3] + 2/3*a[1,2]b[2,3]",
    ),
    "algebra_tensor": lambda: (
        TensorAlgebraElement(
            (1, STAR),
            (2, 3),
            R_PRESENTATION,
            {
                (((), ((1, STAR),)), (((2, 3),), ())): Fraction(-1, 2),
                ((((1, STAR),), ()), ((), ())): Fraction(4),
            },
        ),
        TensorAlgebraElement((1, STAR), (2,), R_PRESENTATION, {(((), ()), ((), ())): ONE}),
        "4*a[1,*](x)1 - 1/2*b[1,*](x)a[2,3]",
    ),
    "operad_tensor": lambda: (
        coproduct(OperadElement.generator(RAM_SIGNATURE, "L", 1, 2)),
        coproduct(OperadElement.generator(RAM_SIGNATURE, "G", 1, 3)),
        None,
    ),
}


@pytest.mark.parametrize("kind", sorted(COMBINATIONS))
def test_combination_kinds_share_the_base_behaviour(kind):
    x, other, expected_repr = COMBINATIONS[kind]()
    if expected_repr is not None:
        assert repr(x) == expected_repr
    zero = x.scaled(0)
    assert type(zero) is type(x) and zero.labels == x.labels and zero.is_zero()
    assert repr(zero) == "0" and x - x == zero and x + -x == zero
    assert x.scaled(2) == x + x and hash(x.scaled(2)) == hash(x + x)
    with pytest.raises(ValueError):
        x + other
    # another kind holding the same labels and terms is a different element
    twin = next(COMBINATIONS[k] for k in sorted(COMBINATIONS) if k != kind)()[0]
    twin.labels, twin.terms = x.labels, dict(x.terms)
    assert twin != x and x != twin
