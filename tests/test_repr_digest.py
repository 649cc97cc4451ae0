"""The printed elements of the algebra side depend on nothing but the maths.

The ``repr`` of every relation instance (R and the Arnold fixture, both
ambient modes, n <= 5), of both differentials of R's instances, of theta
of each basis element along every split at n <= 4 and of rho of the
Ramanujan operad's basis at n = 3, one line each, must hash to the
SHA-256 in ``tests/data/repr_digest.json``.  A change to the engine's
internal names of monomials leaves every line as it is.  A change to the
printed forms on purpose regenerates the golden:

    PYTHONPATH=src python tests/test_repr_digest.py
"""

import hashlib
import json
import os

from ramops.cache import ComponentStore
from ramops.cooperad import theta
from ramops.dual import rho
from ramops.graphalg import ARNOLD_PRESENTATION, R_PRESENTATION, algebra_basis, differential_algebra, relation_instances
from ramops.labels import ordered_splits, standard_labels
from ramops.operad import component_basis
from ramops.ram import presentation

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "repr_digest.json")


def printed_lines(store: ComponentStore):
    for pres in (R_PRESENTATION, ARNOLD_PRESENTATION):
        for mode in ("forest", "full"):
            for n in range(1, 6):
                for family, rel in relation_instances(pres, standard_labels(n), mode):
                    yield f"{pres.name} {mode} {n} {family}: {rel!r}"
                    if pres is R_PRESENTATION:
                        for which in ("up", "down"):
                            yield f"  d_{which}: {differential_algebra(rel, which)!r}"
    for n in range(2, 5):
        comp = algebra_basis(R_PRESENTATION, standard_labels(n), "forest", store)
        for I, J in ordered_splits(comp.labels, 2):
            for b in comp.basis:
                x = comp.monomial_element(b)
                yield f"theta {I} {J} {x!r}: {theta(R_PRESENTATION, I, J, x, store=store)!r}"
    ram = component_basis(presentation("ram"), standard_labels(3), store)
    for t in ram.basis:
        yield f"rho {t!r}: {rho(ram.monomial_element(t), store)!r}"


def digest() -> dict:
    sha = hashlib.sha256()
    count = 0
    for line in printed_lines(ComponentStore()):
        sha.update(line.encode() + b"\n")
        count += 1
    return {"lines": count, "sha256": sha.hexdigest()}


def test_printed_elements_match_the_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert digest() == golden


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(digest(), fh, indent=2)
        fh.write("\n")
