"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass.  Every comparison is exact; the only tolerances are the
stated wall-clock budgets.
"""

import subprocess
import sys
import time

from span_oracle import grafted_ideal_span

from ramops.dual import conjecture_verdict
from ramops.graphalg import R_PRESENTATION, algebra_basis
from ramops.labels import standard_labels
from ramops.linalg import SparseMatrix, rank
from ramops.operad import enumerate_tree_monomials
from ramops.ram import distributive_check, operad_dims, presentation, ram_dims
from ramops.ramanujan import predicted_dims, psi
from ramops.forms import relation_survey
from ramops.suites import (
    suite_cooperad,
    suite_differentials,
    suite_hopf,
    suite_lemmas,
)


def report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {status} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_dimension_match_through_arity_4():
    t0 = time.perf_counter()
    small_ok = all(ram_dims(n) == predicted_dims(n) for n in (1, 2, 3))
    small_time = time.perf_counter() - t0
    t1 = time.perf_counter()
    big_ok = ram_dims(4) == predicted_dims(4)
    big_time = time.perf_counter() - t1
    ok = small_ok and big_ok and small_time < 1.0 and big_time < 300.0
    report(
        1,
        ok,
        f"Ram dims equal the polynomial tables for n=1..4 "
        f"(n<=3 in {small_time:.2f}s < 1s, n=4 in {big_time:.2f}s < 300s)",
    )


def test_criterion_2_arity_three_consistency_triangle():
    pres = presentation("ram")
    dims = ram_dims(3)
    expected = {(0, 0): 1, (0, 1): 3, (0, 2): 2, (1, 1): 3, (1, 2): 5, (2, 2): 3}
    monomials = enumerate_tree_monomials(pres.gens, (1, 2, 3))
    index = {m: i for i, m in enumerate(monomials)}
    mat = SparseMatrix(len(monomials))
    for el in grafted_ideal_span(pres, (1, 2, 3)):
        mat.add_row({index[t]: c for t, c in el.terms.items()})
    rk = rank(mat)
    psi_value = sum(psi(3).values())
    ok = (
        dims == expected
        and sum(dims.values()) == 17
        and len(monomials) == 27
        and rk == 10
        and len(monomials) - rk == psi_value == 17
    )
    report(2, ok, f"Ram(3) table, 27 monomials, relation rank {rk}, 27 - {rk} = {psi_value}")


def test_criterion_3_dual_side_dimensions_match():
    ok = True
    for n in range(1, 5):
        comp = algebra_basis(R_PRESENTATION, standard_labels(n), "forest")
        ok = ok and dict(comp.dims) == ram_dims(n)
    report(3, ok, "forest algebra dims equal Ram dims for n=1..4")


def test_criterion_4_conjecture_verdicts():
    ok = all(conjecture_verdict(n)["isomorphism"] for n in (1, 2, 3))
    t0 = time.perf_counter()
    rep4 = conjecture_verdict(4)
    elapsed = time.perf_counter() - t0
    definite = isinstance(rep4["isomorphism"], bool) and rep4["relation_kill"]
    ok = ok and definite and elapsed < 1800.0
    report(
        4,
        ok,
        f"isomorphism for n=1..3; n=4 verdict={rep4['isomorphism']} in {elapsed:.1f}s",
    )


def test_criterion_5_suboperad_cross_checks():
    ok = True
    totals = []
    for n in range(1, 6):
        expected = {(0, k): c for (i, k), c in psi(n).items() if i == 0}
        dims = operad_dims("poisson", n)
        ok = ok and dims == expected
        totals.append(sum(dims.values()))
    ok = ok and totals == [1, 2, 6, 24, 120]
    for n in range(1, 5):
        expected = {(i, i): c for (i, k), c in psi(n).items() if k == 0}
        ok = ok and operad_dims("bessel", n) == expected
    report(5, ok, f"Poisson totals {totals}; Bessel diagonal matches for n<=4")


def test_criterion_6_distributive_factorization():
    ok = True
    for n in range(1, 5):
        rep = distributive_check(n)
        ok = ok and rep["pass"]
    lg3 = distributive_check(3)["liegriess_dims"][3]
    ok = ok and lg3 == 10
    report(6, ok, f"bigraded partition factorization for n<=4; LieGriess(3) = {lg3}")


def test_criterion_7_property_suites():
    failures = []
    for verdicts in (
        suite_hopf(4),
        suite_differentials(4),
        suite_cooperad(4),
        suite_lemmas(5),
    ):
        failures.extend(v for v in verdicts if not v["pass"])
    ok = not failures
    report(
        7,
        ok,
        "hopf, differential, cooperad and lemma suites all exact and green "
        f"({len(failures)} failures)",
    )
    if failures:
        for f in failures[:10]:
            print("  failed:", f)


def test_criterion_8_forms_oracle():
    t0 = time.perf_counter()
    rep = relation_survey(5, trials=20, seed=0)
    elapsed = time.perf_counter() - t0
    ok = rep["listed_families_hold"] and elapsed < 30.0
    by_family = {r["family"]: r["holds"] for r in rep["families"]}
    report(
        8,
        ok,
        f"listed relations vanish at 20 seeded points for n=5 in {elapsed:.2f}s "
        f"(aa={by_family['aa_sum']}, ab={by_family['ab_sum']}, cycles={by_family['b_cycle']})",
    )


def test_criterion_9_determinism_and_runtime():
    cmd = [sys.executable, "-m", "ramops.cli", "verify", "--suite", "all", "--n", "3", "--json"]
    t0 = time.perf_counter()
    first = subprocess.run(cmd, capture_output=True, text=True)
    first_time = time.perf_counter() - t0
    second = subprocess.run(cmd, capture_output=True, text=True)
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first_time < 60.0
    )
    report(
        9,
        ok,
        f"verify --suite all --n 3 byte-identical across runs, {first_time:.2f}s < 60s",
    )
