"""The two-variable Ramanujan polynomials and the dimension tables they predict.

psi_1 = 1 and psi_{n+1} = psi_n + (x+y)(n psi_n + x d/dx psi_n).  The
coefficient of x**i y**(j-i) in psi_n predicts the dimension of the
bidegree-(i, j) component at arity n.  Coefficients stay integral, so the
polynomials are kept as integer dicts keyed by (x-power, y-power).
"""

from __future__ import annotations

from .labels import BiDegree

Poly2 = dict[tuple[int, int], int]


def psi(n: int) -> Poly2:
    """The n-th Ramanujan polynomial, exact integer coefficients."""
    if n < 1:
        raise ValueError("n must be >= 1")
    current: Poly2 = {(0, 0): 1}
    for m in range(1, n):
        # t = m * psi + x d/dx psi ; next = psi + (x+y) * t
        t: Poly2 = {}
        for (i, k), c in current.items():
            t[(i, k)] = (m + i) * c
        nxt: Poly2 = dict(current)
        for (i, k), c in t.items():
            for key in ((i + 1, k), (i, k + 1)):
                s = nxt.get(key, 0) + c
                if s:
                    nxt[key] = s
                elif key in nxt:
                    del nxt[key]
        current = nxt
    return current


def predicted_dims(n: int) -> dict[BiDegree, int]:
    """Bidegree table read off psi_n: (i, j) -> coefficient of x**i y**(j-i)."""
    return {(i, i + k): c for (i, k), c in psi(n).items()}


def poly_str(p: Poly2) -> str:
    """Human form, graded order: 1 + 3x + 3y + 3x^2 + 5xy + 2y^2 style."""
    if not p:
        return "0"
    bits = []
    for (i, k) in sorted(p, key=lambda ik: (ik[0] + ik[1], -ik[0])):
        c = p[(i, k)]
        var = ""
        if i:
            var += "x" if i == 1 else f"x^{i}"
        if k:
            var += "y" if k == 1 else f"y^{k}"
        if not var:
            bits.append(str(c))
        elif c == 1:
            bits.append(var)
        elif c == -1:
            bits.append(f"-{var}")
        else:
            bits.append(f"{c}{var}")
    return " + ".join(bits).replace("+ -", "- ")
