"""The four benchmark workloads: what each sets up, runs and checks.

Every function here runs inside a fresh child interpreter (see ``job.py``)
against an explicit component-store directory, so no result depends on the
repository's ``.ramops-cache/`` or on memos left by an earlier job.

The workloads are exact computations with no random input except the forms
survey of ``verify-n4``.  Elsewhere the seed fixes the order of the library
calls: the same seed always gives the same call sequence.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

from ramops.cache import ComponentStore
from ramops.dual import conjecture_verdict
from ramops.graphalg import ARNOLD_PRESENTATION, R_PRESENTATION, algebra_basis
from ramops.labels import standard_labels
from ramops.operad import component_basis
from ramops.ram import operad_dims, presentation
from ramops.ramanujan import predicted_dims, psi
from ramops.reports import canonical_json, dims_to_table, make_report
from ramops.suites import run_suite

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

BUILD_N = 5
VERIFY_N = 4
CONJECTURE_N = 4

# verdicts of run_suite("all", 4) at the seed commit
VERIFY_VERDICTS = 809
BUILD_STEPS = ("poisson", "bessel", "liegriess", "forest", "arnold-forest", "arnold-full")


def load_golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def presentations() -> None:
    """Build every presentation the workloads use (part of set-up time)."""
    for name in ("poisson", "bessel", "liegriess", "ram"):
        presentation(name)


# --- exact expectations ------------------------------------------------------


def poisson_prediction(n: int) -> dict:
    return {(0, k): c for (i, k), c in psi(n).items() if i == 0}


def bessel_prediction(n: int) -> dict:
    return {(i, i): c for (i, k), c in psi(n).items() if k == 0}


def arnold_prediction(n: int) -> dict:
    """Coefficients of (1+t)(1+2t)...(1+(n-1)t) at bidegree (k, k)."""
    coeffs = [1]
    for m in range(1, n):
        coeffs = [a + m * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return {(k, k): c for k, c in enumerate(coeffs) if c}


def _set_partitions(items: tuple):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in _set_partitions(rest):
        yield [(first,)] + sub
        for i in range(len(sub)):
            yield sub[:i] + [(first,) + sub[i]] + sub[i + 1 :]


def partition_convolution(block_dims: dict[int, dict], n: int) -> dict:
    """Sum over set partitions of {1..n} of the product of per-block tables."""
    total: dict = {}
    for partition in _set_partitions(tuple(range(1, n + 1))):
        term = {(0, 0): 1}
        for block in partition:
            nxt: dict = {}
            for (h1, w1), c1 in term.items():
                for (h2, w2), c2 in block_dims[len(block)].items():
                    key = (h1 + h2, w1 + w2)
                    nxt[key] = nxt.get(key, 0) + c1 * c2
            term = nxt
        for key, c in term.items():
            total[key] = total.get(key, 0) + c
    return total


# --- jobs ----------------------------------------------------------------------


def _order(steps: tuple, seed: int) -> list:
    order = list(steps)
    random.Random(seed).shuffle(order)
    return order


def dims_tables(store: ComponentStore, seed: int, n: int = BUILD_N) -> tuple[list, str]:
    """Derive the tables of ``build-n5`` at arity n; cold or warm by the store."""
    labels = standard_labels(n)
    tables: dict = {}
    checks: list = []
    for step in _order(BUILD_STEPS, seed):
        if step in ("poisson", "bessel"):
            dims = operad_dims(step, n, store)
            expected = poisson_prediction(n) if step == "poisson" else bessel_prediction(n)
            checks.append((f"{step}_dims_n{n}", dims == expected))
        elif step == "liegriess":
            block_dims = {k: operad_dims("liegriess", k, store) for k in range(1, n + 1)}
            dims = block_dims[n]
            for k in range(1, n):
                tables[f"liegriess_dims_n{k}"] = dims_to_table(block_dims[k])
            checks.append(
                ("liegriess_partition_convolution", partition_convolution(block_dims, n) == predicted_dims(n))
            )
        elif step == "forest":
            dims = dict(algebra_basis(R_PRESENTATION, labels, "forest", store).dims)
            checks.append((f"forest_dims_n{n}", dims == predicted_dims(n)))
        else:
            mode = step.split("-")[1]
            dims = dict(algebra_basis(ARNOLD_PRESENTATION, labels, mode, store).dims)
            checks.append((f"arnold_{mode}_dims_n{n}", dims == arnold_prediction(n)))
        tables[f"{step}_dims_n{n}"] = dims_to_table(dims)
    report = make_report("dims", {"n": n}, [], tables)
    return checks, canonical_json(report)


def verify_n4(store: ComponentStore, seed: int) -> tuple[list, str]:
    verdicts, tables = run_suite("all", VERIFY_N, store, seed=seed)
    checks = [(v["check"], bool(v["pass"])) for v in verdicts]
    checks.append(("verdict_count", len(verdicts) == VERIFY_VERDICTS))
    report = make_report("verify", {"suite": "all", "n": VERIFY_N}, verdicts, tables, seed=seed)
    return checks, canonical_json(report)


def conjecture_n4(store: ComponentStore, seed: int) -> tuple[list, str]:
    golden = load_golden()["conjecture_blocks"]
    checks: list = []
    tables: dict = {}
    for n in _order(tuple(range(1, CONJECTURE_N + 1)), seed):
        result = conjecture_verdict(n, store)
        blocks = [
            [b["h"], b["w"], b["dim_operad"], b["dim_dual"], b["rank"], int(b["isomorphism"])]
            for b in result["blocks"]
        ]
        checks.append((f"relation_kill_n{n}", result["relation_kill"] is True))
        checks.append((f"dims_equal_n{n}", result["dims_equal"] is True))
        checks.append((f"isomorphism_n{n}", result["isomorphism"] is True))
        checks.append((f"blocks_match_seed_n{n}", blocks == golden[str(n)]))
        tables[f"conjecture_blocks_n{n}"] = blocks
    return checks, canonical_json(make_report("conjecture", {"n": CONJECTURE_N}, [], tables))


JOBS = {
    "build-n5": dims_tables,
    "verify-n4": verify_n4,
    "conjecture-n4": conjecture_n4,
    "warm-load": dims_tables,
}


# --- store pre-population ----------------------------------------------------


def populate(workload: str, store: ComponentStore, seed: int) -> str | None:
    """Write what the workload's jobs read into the store.

    Returns the canonical-report digest when set-up itself derives the
    tables a job must reproduce (``warm-load`` reads back ``build-n5``).
    """
    if workload == "build-n5":
        return None
    if workload == "warm-load":
        return digest(dims_tables(store, seed)[1])
    ram = presentation("ram")
    n = VERIFY_N if workload == "verify-n4" else CONJECTURE_N
    for k in range(1, n + 1):
        labels = standard_labels(k)
        component_basis(ram, labels, store)
        algebra_basis(R_PRESENTATION, labels, "forest", store)
        if workload == "verify-n4":
            component_basis(presentation("liegriess"), labels, store)
            algebra_basis(ARNOLD_PRESENTATION, labels, "forest", store)
            if k >= 2:
                algebra_basis(R_PRESENTATION, labels, "full", store)
                algebra_basis(ARNOLD_PRESENTATION, labels, "full", store)
    return None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()

