import pytest

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
    # True and 1.0 equal 1 and hash alike, but 1.0 is not an integer atom
    assert check_label_set((1, 2)) == (1, 2)
    ordered = check_label_set((True, 2))
    assert ordered == (1, 2) and type(ordered[0]) is bool
    ordered = check_label_set((1.0, 2))
    assert ordered == (2, 1.0) and type(ordered[1]) is float
    assert [type(a) for a in check_label_set((1, 2))] == [int, int]
