import pytest

from ramops.ramanujan import poly_str, predicted_dims, psi


def evaluate(p, x, y):
    return sum(c * x**i * y**k for (i, k), c in p.items())


def test_psi_base_and_first_steps():
    assert psi(1) == {(0, 0): 1}
    assert psi(2) == {(0, 0): 1, (1, 0): 1, (0, 1): 1}
    assert psi(3) == {
        (0, 0): 1,
        (1, 0): 3,
        (0, 1): 3,
        (2, 0): 3,
        (1, 1): 5,
        (0, 2): 2,
    }


def test_psi_recursion_by_hand_at_4():
    # one more step of psi + (x+y)(3 psi + x dpsi/dx) applied to psi_3
    p3 = psi(3)
    t = {(i, k): (3 + i) * c for (i, k), c in p3.items()}
    expected = dict(p3)
    for (i, k), c in t.items():
        for key in ((i + 1, k), (i, k + 1)):
            expected[key] = expected.get(key, 0) + c
    assert psi(4) == {k: v for k, v in expected.items() if v}


def test_predicted_dims_tables():
    assert predicted_dims(1) == {(0, 0): 1}
    assert predicted_dims(2) == {(0, 0): 1, (0, 1): 1, (1, 1): 1}
    assert predicted_dims(3) == {
        (0, 0): 1,
        (0, 1): 3,
        (0, 2): 2,
        (1, 1): 3,
        (1, 2): 5,
        (2, 2): 3,
    }


def test_coefficients_positive_and_integral():
    for n in range(1, 9):
        for c in psi(n).values():
            assert isinstance(c, int)
            assert c > 0


def test_poly_str():
    assert poly_str(psi(1)) == "1"
    assert poly_str(psi(2)) == "1 + x + y"
    assert poly_str(psi(3)) == "1 + 3x + 3y + 3x^2 + 5xy + 2y^2"


def test_totals_along_specializations():
    # y-only coefficients sum to n! (the commutative-plus-bracket layer)
    for n in range(1, 7):
        assert evaluate(psi(n), 0, 1) == __import__("math").factorial(n)


def test_psi_rejects_bad_input():
    with pytest.raises(ValueError):
        psi(0)
