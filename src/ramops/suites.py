"""Verification suites: named bundles of exact checks with report verdicts.

Each suite returns a list of verdict dicts ({check, pass, params, witness?})
in a deterministic order, so reports are byte-stable run to run.
"""

from __future__ import annotations

from .cache import ComponentStore, default_store
from .cooperad import (
    cooperad_axiom_check,
    theta_intertwines_differentials,
    theta_relation_kill,
)
from .graphalg import (
    ARNOLD_PRESENTATION,
    R_PRESENTATION,
    algebra_basis,
    differential_algebra,
    path_permutation_sum,
    relation_instances,
)
from .labels import ordered_splits, standard_labels
from .operad import component_basis, ideal_span
from .ram import differential, distributive_check, hopf_check, presentation
from .forms import relation_survey
from .reports import verdict

SUITES = ("hopf", "differentials", "cooperad", "lemmas", "forms", "all")


def suite_hopf(n: int, store: ComponentStore | None = None) -> list[dict]:
    store = store or default_store()
    verdicts = []
    for k in range(2, n + 1):
        verdicts.extend(hopf_check(k, store))
    return verdicts


def _derivation_checks(side: str, comp, derivation, order: tuple[str, str]) -> list[dict]:
    """D^2 = 0 for each derivation in ``order``, then [up, down] = weight, on
    every ambient monomial of the component."""
    k = len(comp.labels)
    verdicts = []
    for which in order:
        bad = None
        for m in comp.monomials:
            el = comp.monomial_element(m)
            if not derivation(derivation(el, which), which).is_zero():
                bad = {"monomial": repr(el)}
                break
        verdicts.append(verdict(f"{side}_{which}_squares_to_zero", bad is None, bad, n=k))

    bad = None
    for m in comp.monomials:
        el = comp.monomial_element(m)
        w = el.bidegree()[1]
        anticomm = derivation(derivation(el, "up"), "down") + derivation(derivation(el, "down"), "up")
        if anticomm != el.scaled(w):
            bad = {"monomial": repr(el), "weight": w}
            break
    verdicts.append(verdict(f"{side}_laplacian_is_weight", bad is None, bad, n=k))
    return verdicts


def suite_differentials(n: int, store: ComponentStore | None = None) -> list[dict]:
    store = store or default_store()
    pres = presentation("ram")
    verdicts = []
    for k in range(2, n + 1):
        labels = standard_labels(k)
        comp = component_basis(pres, labels, store)
        verdicts.extend(_derivation_checks("operad", comp, differential, ("down", "up")))

        if k >= 3:
            for which in ("down", "up"):
                bad = None
                for idx, rel in enumerate(ideal_span(pres, labels)):
                    if not comp.normal_form(differential(rel, which)).is_zero():
                        bad = {"relation_index": idx}
                        break
                verdicts.append(
                    verdict(f"operad_{which}_preserves_ideal", bad is None, bad, n=k)
                )

        gpres = R_PRESENTATION
        gcomp = algebra_basis(gpres, labels, "forest", store)
        verdicts.extend(_derivation_checks("algebra", gcomp, differential_algebra, ("up", "down")))

        for mode in ("forest", "full") if k <= 4 else ("forest",):
            mcomp = algebra_basis(gpres, labels, mode, store)
            for which in ("up", "down"):
                bad = None
                for family, rel in relation_instances(gpres, labels, mode):
                    image = differential_algebra(rel, which)
                    if not mcomp.normal_form(image).is_zero():
                        bad = {"family": family, "relation": repr(rel)}
                        break
                verdicts.append(
                    verdict(
                        f"algebra_{which}_preserves_ideal",
                        bad is None,
                        bad,
                        n=k,
                        mode=mode,
                    )
                )
    return verdicts


def suite_cooperad(n: int, store: ComponentStore | None = None) -> list[dict]:
    store = store or default_store()
    verdicts = []
    for k in range(2, n + 1):
        labels = standard_labels(k)
        for I, J in ordered_splits(labels, 2):
            verdicts.extend(theta_relation_kill(R_PRESENTATION, I, J, store))
            verdicts.extend(theta_intertwines_differentials(R_PRESENTATION, I, J, store))
        if k >= 3:
            for I, J, K in ordered_splits(labels, 3):
                verdicts.extend(cooperad_axiom_check(R_PRESENTATION, I, J, K, store))
    return verdicts


def _poincare_product(k: int) -> dict[int, int]:
    """Coefficients of prod_{m=1}^{k-1} (1 + m t)."""
    coeffs = {0: 1}
    for m in range(1, k):
        nxt: dict[int, int] = {}
        for e, c in coeffs.items():
            nxt[e] = nxt.get(e, 0) + c
            nxt[e + 1] = nxt.get(e + 1, 0) + c * m
        coeffs = nxt
    return coeffs


def suite_lemmas(n: int, store: ComponentStore | None = None) -> list[dict]:
    store = store or default_store()
    verdicts = []
    gpres = R_PRESENTATION

    if n >= 4:
        labels4 = standard_labels(4)
        comp4 = algebra_basis(gpres, labels4, "forest", store)
        for colors, name in ((("a", "a", "b"), "aab"), (("a", "b", "b"), "abb")):
            total = path_permutation_sum(gpres, labels4, colors, "forest")
            ok = comp4.normal_form(total).is_zero()
            verdicts.append(
                verdict(f"permutation_sum_{name}_vanishes", ok, None if ok else {"sum": repr(total)})
            )

    for k in range(2, min(n, 4) + 1):
        labels = standard_labels(k)
        forest = algebra_basis(gpres, labels, "forest", store)
        full = algebra_basis(gpres, labels, "full", store)
        ok = forest.dims == full.dims
        verdicts.append(
            verdict(
                "forest_dims_match_full_dims",
                ok,
                None if ok else {"forest": sorted(forest.dims.items()), "full": sorted(full.dims.items())},
                n=k,
            )
        )

    for k in range(2, n + 1):
        comp = algebra_basis(gpres, standard_labels(k), "forest", store)
        max_w = max((w for (_, w) in comp.dims), default=0)
        ok = max_w <= k - 1
        verdicts.append(verdict("second_degree_bounded", ok, None if ok else {"max_w": max_w}, n=k))

    for k in range(2, n + 1):
        comp = algebra_basis(ARNOLD_PRESENTATION, standard_labels(k), "forest", store)
        expected = _poincare_product(k)
        got = {w: d for (h, w), d in sorted(comp.dims.items())}
        ok = got == {e: c for e, c in expected.items() if c}
        verdicts.append(
            verdict(
                "arnold_hilbert_series",
                ok,
                None if ok else {"expected": sorted(expected.items()), "got": sorted(got.items())},
                n=k,
            )
        )
        if k <= 5:
            full = algebra_basis(ARNOLD_PRESENTATION, standard_labels(k), "full", store)
            ok = full.dims == comp.dims
            verdicts.append(
                verdict(
                    "arnold_forest_matches_full",
                    ok,
                    None if ok else {"forest": sorted(comp.dims.items()), "full": sorted(full.dims.items())},
                    n=k,
                )
            )
    return verdicts


def suite_forms(n: int, trials: int = 20, seed: int = 0) -> tuple[list[dict], dict]:
    survey = relation_survey(n, trials, seed)
    verdicts = []
    for fam in survey["families"]:
        if fam["listed_for_forms"]:
            verdicts.append(
                verdict(
                    f"forms_relation_{fam['family']}",
                    fam["holds"],
                    fam["witness"],
                    n=n,
                    trials=trials,
                )
            )
        else:
            verdicts.append(
                {
                    "check": f"forms_probe_{fam['family']}",
                    "pass": True,
                    "params": {"n": n, "trials": trials, "holds_in_model": fam["holds"]},
                    "informational": True,
                    "witness": fam["witness"],
                }
            )
    return verdicts, survey


def suite_distributive(n: int, store: ComponentStore | None = None) -> list[dict]:
    store = store or default_store()
    verdicts = []
    for k in range(1, n + 1):
        rep = distributive_check(k, store)
        verdicts.append(
            verdict(
                "distributive_factorization",
                rep["pass"],
                None
                if rep["pass"]
                else {"direct": sorted(rep["direct"].items()), "composite": sorted(rep["composite"].items())},
                n=k,
            )
        )
    return verdicts


def run_suite(
    name: str,
    n: int,
    store: ComponentStore | None = None,
    trials: int = 20,
    seed: int = 0,
) -> tuple[list[dict], dict]:
    """Returns (verdicts, extra_tables)."""
    store = store or default_store()
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    verdicts: list[dict] = []
    tables: dict = {}
    if name in ("hopf", "all"):
        verdicts.extend(suite_hopf(n, store))
    if name in ("differentials", "all"):
        verdicts.extend(suite_differentials(n, store))
    if name in ("cooperad", "all"):
        verdicts.extend(suite_cooperad(n, store))
    if name in ("lemmas", "all"):
        verdicts.extend(suite_lemmas(n, store))
    if name in ("forms", "all"):
        fverdicts, survey = suite_forms(n, trials, seed)
        verdicts.extend(fverdicts)
        tables["forms_survey"] = {
            "seed": survey["seed"],
            "families": [
                {k: fam[k] for k in ("family", "instances", "holds", "listed_for_forms")}
                for fam in survey["families"]
            ],
        }
    if name == "all":
        verdicts.extend(suite_distributive(n, store))
    return verdicts, tables
