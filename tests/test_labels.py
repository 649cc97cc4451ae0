import pytest

from ramops.cache import ComponentStore
from ramops.graphalg import R_PRESENTATION, AlgebraElement, algebra_basis
from ramops.labels import HASH, STAR, check_label_set


def test_check_label_set_orders_atoms_and_accepts_any_iterable():
    assert check_label_set((3, "x", HASH, 1, STAR)) == (1, 3, STAR, HASH, "x")
    assert check_label_set([2, 1]) == (1, 2)
    assert check_label_set(a for a in (2, 1)) == (1, 2)


def test_duplicate_labels_raise_on_every_call():
    for _ in range(2):
        with pytest.raises(ValueError, match="duplicate"):
            check_label_set((1, 2, 1))
        with pytest.raises(ValueError, match="duplicate"):
            check_label_set([STAR, 4, STAR])


def test_equal_tuples_of_other_atom_types_are_checked_on_their_own():
    # True and 1.0 equal 1 and hash alike, but neither is an atom: each is
    # refused on every call, and never answered from the entry of (1, 2)
    assert check_label_set((1, 2)) == (1, 2)
    for _ in range(2):
        for labels in ((True, 2), (1.0, 2), (1, False)):
            with pytest.raises(ValueError, match="not an atom"):
                check_label_set(labels)
    assert [type(a) for a in check_label_set((1, 2))] == [int, int]


@pytest.mark.parametrize("label", (None, True, 1.5, (1, 2), b"x", [1]))
def test_only_ints_and_strings_are_labels(label):
    for _ in range(2):
        with pytest.raises(ValueError, match="not an atom"):
            check_label_set((label, "x"))


def test_a_refused_label_set_reaches_no_component():
    # algebra_basis on (True, 2) once answered with the component of (1, 2)
    store = ComponentStore()
    assert algebra_basis(R_PRESENTATION, (1, 2), "forest", store).labels == (1, 2)
    with pytest.raises(ValueError, match="not an atom"):
        algebra_basis(R_PRESENTATION, (True, 2), "forest", store)
    with pytest.raises(ValueError, match="not an atom"):
        AlgebraElement((True, 2), R_PRESENTATION)
