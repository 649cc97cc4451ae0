"""Command-line driver: dimension tables, verification suites, the conjecture
verdict, the Ramanujan polynomials, and cache management.

Each ``cmd_*`` computes a report body: its parameters, verdicts, tables and
presentation hashes.  ``main`` runs it through ``_run``, which alone times
it, builds the canonical report, emits it and reads the exit code off it.

Exit codes: 0 when every check passes, 1 when a check fails (the report
carries a witness), 2 on usage errors, exceeded resource bounds or a cache
directory or output file that cannot be written.
"""

from __future__ import annotations

import argparse
import sys
import time

from .cache import ComponentStore, resolve_cache_dir
from .dual import conjecture_verdict
from .graphalg import ARNOLD_PRESENTATION, R_PRESENTATION, algebra_basis, ideal_rank_breakdown
from .labels import standard_labels
from .ram import (
    DEFAULT_MAX_ARITY,
    ResourceBoundError,
    operad_dims,
    presentation,
)
from .ramanujan import poly_str, predicted_dims, psi
from .reports import all_pass, canonical_json, dims_to_table, informational, make_report, render_pretty, verdict
from .suites import SUITES, run_suite

DIMS_OPERADS = ("ram", "poisson", "bessel", "liegriess", "com")


def _store_from_args(args) -> ComponentStore:
    return ComponentStore(resolve_cache_dir(args.cache_dir))


def _check_arity(args) -> None:
    if args.n > args.max_arity:
        raise ResourceBoundError(
            f"arity {args.n} exceeds the configured bound {args.max_arity}"
        )


def _emit(report: dict, args) -> None:
    text = canonical_json(report)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if getattr(args, "json", False):
        sys.stdout.write(text)
    else:
        sys.stdout.write(render_pretty(report))


def _prediction_for(which: str, n: int):
    p = psi(n)
    if which == "ram":
        return predicted_dims(n)
    if which == "poisson":
        return {(0, k): c for (i, k), c in p.items() if i == 0}
    if which == "bessel":
        return {(i, i): c for (i, k), c in p.items() if k == 0}
    if which == "com":
        return {(0, 0): 1}
    return None


def cmd_dims(args):
    store = _store_from_args(args)
    dims = operad_dims(args.operad, args.n, store, max_arity=args.max_arity)
    tables = {f"{args.operad}_dims_n{args.n}": dims_to_table(dims)}
    verdicts = []
    predicted = _prediction_for(args.operad, args.n)
    if predicted is not None:
        tables[f"{args.operad}_predicted_n{args.n}"] = dims_to_table(predicted)
        ok = dims == predicted
        witness = {"computed": dims_to_table(dims), "predicted": dims_to_table(predicted)}
        verdicts.append(verdict("dims_match_prediction", ok, witness, operad=args.operad, n=args.n))
    hashes = {args.operad: presentation(args.operad).hash}
    return {"operad": args.operad, "n": args.n}, verdicts, tables, hashes


def cmd_ralg_dims(args):
    _check_arity(args)
    store = _store_from_args(args)
    pres = ARNOLD_PRESENTATION if args.fixture == "arnold" else R_PRESENTATION
    if args.ambient == "full" and args.n > 4 and pres is R_PRESENTATION:
        raise ResourceBoundError("full ambient mode is bounded at n = 4 for the two-color family")
    comp = algebra_basis(pres, standard_labels(args.n), args.ambient, store)
    tables = {f"algebra_dims_n{args.n}_{args.ambient}": dims_to_table(comp.dims)}
    if args.rank_report:
        tables["ideal_rank_breakdown"] = ideal_rank_breakdown(pres, standard_labels(args.n), args.ambient, store)
    parameters = {"n": args.n, "ambient": args.ambient, "fixture": args.fixture}
    return parameters, [], tables, {pres.name: pres.hash}


def cmd_ramanujan(args):
    tables = {
        f"psi_{args.n}": poly_str(psi(args.n)),
        f"predicted_dims_n{args.n}": dims_to_table(predicted_dims(args.n)),
    }
    return {"n": args.n}, [], tables, {}


def cmd_verify(args):
    _check_arity(args)
    store = _store_from_args(args)
    verdicts, tables = run_suite(args.suite, args.n, store, trials=args.trials, seed=args.seed)
    hashes = {
        "ram": presentation("ram").hash,
        R_PRESENTATION.name: R_PRESENTATION.hash,
        ARNOLD_PRESENTATION.name: ARNOLD_PRESENTATION.hash,
    }
    return {"suite": args.suite, "n": args.n, "trials": args.trials}, verdicts, tables, hashes


def cmd_conjecture(args):
    store = _store_from_args(args)
    result = conjecture_verdict(args.n, store, max_n=args.max_arity)
    verdicts = [
        verdict(
            "comparison_map_kills_relations",
            result["relation_kill"],
            result["relation_kill_witness"],
            n=args.n,
        ),
        verdict("bigraded_dims_match", result["dims_equal"], n=args.n),
        informational("isomorphism_verdict", n=args.n, isomorphism=result["isomorphism"]),
    ]
    tables = {
        f"conjecture_blocks_n{args.n}": [
            [b["h"], b["w"], b["dim_operad"], b["dim_dual"], b["rank"], int(b["isomorphism"])]
            for b in result["blocks"]
        ],
        f"isomorphism_n{args.n}": result["isomorphism"],
    }
    hashes = {"ram": presentation("ram").hash, R_PRESENTATION.name: R_PRESENTATION.hash}
    return {"n": args.n}, verdicts, tables, hashes


def cmd_cache(args):
    directory = resolve_cache_dir(args.dir)
    store = ComponentStore(directory)
    if args.action == "info":
        return {"action": "info", "dir": directory}, [], {"cache": store.info()}, {}
    return {"action": "clear", "dir": directory}, [], {"removed_files": store.clear()}, {}


def _run(args) -> int:
    """Run the command, then build, emit and judge its report."""
    started = time.perf_counter()
    parameters, verdicts, tables, hashes = args.func(args)
    report = make_report(
        args.command,
        parameters,
        verdicts,
        tables,
        seed=getattr(args, "seed", None),
        presentation_hashes=hashes,
        timings={"total": time.perf_counter() - started} if getattr(args, "timings", False) else None,
    )
    _emit(report, args)
    return 0 if all_pass(report) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramops",
        description="Exact verification engine for the Ramanujan operad and its dual side.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def output(p):
        p.add_argument("--out", default=None, help="write the canonical report to this file")
        p.add_argument("--json", action="store_true", help="print the canonical report to stdout")

    def common(p):
        p.add_argument("--cache-dir", default=None, help="component cache directory")
        output(p)
        p.add_argument(
            "--timings", action="store_true", help="include wall-clock timings in the report"
        )
        p.add_argument(
            "--max-arity",
            type=int,
            default=DEFAULT_MAX_ARITY,
            help="resource bound on the component arity",
        )

    p = sub.add_parser("dims", help="bigraded dimension table of an operad component")
    p.add_argument("--operad", choices=DIMS_OPERADS, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("ralg-dims", help="bigraded dimension table of a graph algebra")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ambient", choices=("forest", "full"), default="forest")
    p.add_argument("--fixture", choices=("two-color", "arnold"), default="two-color")
    p.add_argument(
        "--rank-report",
        action="store_true",
        help="also report ideal ranks with and without the 12-term families",
    )
    common(p)
    p.set_defaults(func=cmd_ralg_dims)

    p = sub.add_parser("ramanujan", help="print a Ramanujan polynomial and its table")
    p.add_argument("--n", type=int, required=True)
    output(p)
    p.set_defaults(func=cmd_ramanujan)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("conjecture", help="isomorphism verdict at one arity")
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_conjecture)

    p = sub.add_parser("cache", help="inspect or clear the component cache")
    p.add_argument("action", choices=("info", "clear"))
    p.add_argument("--dir", default=None)
    output(p)
    p.set_defaults(func=cmd_cache)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except ResourceBoundError as exc:
        sys.stderr.write(f"resource bound exceeded: {exc}\n")
        if exc.partial:
            sys.stderr.write(f"partial progress: {exc.partial}\n")
        return 2
    except ValueError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"file error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
