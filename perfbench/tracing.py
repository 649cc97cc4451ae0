"""Per-layer tracing from outside the library.

The tracer replaces public functions and methods of the ``ramops`` modules
with wrappers, runs one job, and puts every original back.  ``from .x
import f`` binds a second name for ``f`` in the importing module, so a
function is replaced under every name that any loaded module holds for it
(``ramops.cooperad.theta`` and ``ramops.dual.theta`` alike); methods are
replaced once, on their class.

Two kinds of wrapper:

* a span wrapper records (name, parent, start, end) in memory and updates
  the function's counters;
* a count wrapper, for functions called hundreds of thousands of times
  per job (``graphalg.multiply``), only updates counters, so its time is
  part of its caller's span.

A span's self time is its duration minus the durations of its direct
child spans.  The job itself is the root span (``bench``), so the self
times of all spans add up to the traced job time exactly.
"""

from __future__ import annotations

import gzip
import os
import sys
from array import array
from dataclasses import dataclass
from functools import wraps
from time import perf_counter
from typing import Callable

LAYERS = ("linalg", "operad", "graphalg", "cooperad", "dual", "ram", "forms", "cache", "suites")
ROOT = "bench.job"


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_yield")):
        return "ratio"
    if metric.startswith("cache.bytes_"):
        return "bytes"
    return "count"


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``owner`` is a module path or ``module:Class``."""

    owner: str
    attr: str
    span: bool = True
    after: Callable | None = None
    label: str | None = None


class Tracer:
    def __init__(self, targets: tuple[Target, ...] | None = None):
        self.targets = TARGETS if targets is None else targets
        self.counts: dict[str, float] = {}
        self.names: list[str] = []
        self._name_ix: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.seen_keys: set = set()

    # --- recording ---------------------------------------------------------

    def bump(self, key: str, by: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def _intern(self, name: str) -> int:
        if name not in self._name_ix:
            self._name_ix[name] = len(self.names)
            self.names.append(name)
        return self._name_ix[name]

    def span_wrapper(self, fn: Callable, name: str, after: Callable | None) -> Callable:
        ix = self._intern(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        calls = name + "_calls"
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(ix)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                counts[calls] = counts.get(calls, 0) + 1
                if after is not None:
                    after(self, args, kwargs, result)
                return result
            finally:
                ends[sid] = perf_counter()
                stack.pop()

        return wrapper

    def count_wrapper(self, fn: Callable, name: str, after: Callable | None) -> Callable:
        calls = name + "_calls"
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[calls] = counts.get(calls, 0) + 1
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def root(self, fn: Callable, *args):
        """Run ``fn(*args)`` as the root span of the trace."""
        return self.span_wrapper(fn, ROOT, None)(*args)

    # --- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for m in list(sys.modules.values()) if m is not None]
        for target in self.targets:
            module_name, _, class_name = target.owner.partition(":")
            module = sys.modules[module_name]
            layer = module_name.rsplit(".", 1)[-1]
            name = f"{layer}.{target.label or target.attr}"
            make = self.span_wrapper if target.span else self.count_wrapper
            if class_name:
                cls = getattr(module, class_name)
                original = cls.__dict__[target.attr]
                self._patch(cls, target.attr, original, make(original, name, target.after))
                continue
            original = getattr(module, target.attr)
            wrapper = make(original, name, target.after)
            for mod in modules:
                namespace = getattr(mod, "__dict__", None)
                if not namespace:
                    continue
                for attr, value in list(namespace.items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # --- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus direct children's durations."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name[i]]
            out[name] = out.get(name, 0.0) + dur[i] - child[i]
        return out

    def root_duration(self) -> float:
        ix = self._name_ix.get(ROOT)
        return sum(
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.name[i] == ix and self.parent[i] < 0
        )

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the traced job (see README.md for each name)."""
        self_s = self.self_times()
        c = self.counts
        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        m["bench.self_s"] = self_s.get(ROOT, 0.0)
        m["trace.job_s"] = self.root_duration()
        m["trace.spans"] = len(self.start)

        def s(name):
            return self_s.get(name, 0.0)

        def n(name):
            return c.get(name, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        m["linalg.rref_s"] = s("linalg.rref")
        m["linalg.rows_in"] = n("linalg.rows_in")
        m["linalg.rank"] = n("linalg.rank")
        m["linalg.useful_row_ratio"] = ratio(n("linalg.rank"), n("linalg.rows_in"))
        m["linalg.reduce_calls"] = n("linalg.reduce_calls")
        m["linalg.reduce_s"] = s("linalg.reduce")

        m["operad.ideal_span_s"] = s("operad.ideal_span")
        m["operad.span_elements"] = n("operad.span_elements")
        m["operad.compose_calls"] = n("operad.compose_calls")
        m["operad.compose_s"] = s("operad.compose")
        m["operad.coords_calls"] = n("operad.coords_calls")
        m["operad.coords_s"] = s("operad.coords")

        m["graphalg.multiply_calls"] = n("graphalg.multiply_calls")
        m["graphalg.multiply_kept_ratio"] = ratio(n("graphalg.multiply_kept"), n("graphalg.multiply_calls"))
        m["graphalg.build_s"] = s("graphalg.algebra_basis")
        m["graphalg.coords_calls"] = n("graphalg.coords_calls")
        m["graphalg.coords_s"] = s("graphalg.coords")
        m["graphalg.differential_calls"] = n("graphalg.differential_calls")

        m["cooperad.theta_calls"] = n("cooperad.theta_calls")
        m["cooperad.theta_s"] = s("cooperad.theta")
        m["cooperad.theta_zero_ratio"] = ratio(n("cooperad.theta_zero"), n("cooperad.theta_calls"))
        m["cooperad.tensor_nf_s"] = s("cooperad.tensor_normal_form")

        m["dual.dual_compose_calls"] = n("dual.dual_compose_calls")
        m["dual.dual_compose_s"] = s("dual.dual_compose")
        m["dual.rho_s"] = s("dual.rho")
        m["dual.slots_evaluated"] = n("dual.slots_evaluated")
        m["dual.slots_nonzero"] = n("dual.slots_nonzero")
        m["dual.slot_yield"] = ratio(n("dual.slots_nonzero"), n("dual.slots_evaluated"))

        m["ram.coproduct_calls"] = n("ram.coproduct_calls")
        m["ram.coproduct_s"] = s("ram.coproduct")
        m["ram.differential_calls"] = n("ram.differential_calls")
        m["ram.hopf_check_s"] = s("ram.hopf_check")

        m["forms.survey_s"] = s("forms.relation_survey")
        m["forms.eval_calls"] = n("forms.eval_calls")

        m["cache.get_calls"] = n("cache.get_calls")
        m["cache.hit_ratio"] = ratio(n("cache.hits"), n("cache.get_calls"))
        m["cache.get_s"] = s("cache.get")
        m["cache.bytes_read"] = n("cache.bytes_read")
        m["cache.put_calls"] = n("cache.put_calls")
        m["cache.put_s"] = s("cache.put")
        m["cache.bytes_written"] = n("cache.bytes_written")
        return m

    def write_spans(self, path: str) -> None:
        """One line per span: id, parent id, name, start and end (seconds)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name[i]]}\t"
                    f"{self.start[i]!r}\t{self.end[i]!r}\n"
                )


# --- counters read from arguments and results --------------------------------


def _rref(tr: Tracer, args, kwargs, result) -> None:
    tr.bump("linalg.rows_in", len(args[0].rows))
    tr.bump("linalg.rank", result.rank)


def _ideal_span(tr: Tracer, args, kwargs, result) -> None:
    tr.bump("operad.span_elements", len(result))


def _multiply(tr: Tracer, args, kwargs, result) -> None:
    if result is not None:
        tr.bump("graphalg.multiply_kept")


def _theta(tr: Tracer, args, kwargs, result) -> None:
    if result.is_zero():
        tr.bump("cooperad.theta_zero")


def _dual_compose(tr: Tracer, args, kwargs, result) -> None:
    f, g = args[0], args[1]
    if f.is_zero() or g.is_zero():
        return
    comp = result.component
    evaluated = comp.dims.get(result.bidegree, 0) if result.bidegree is not None else comp.dim
    tr.bump("dual.slots_evaluated", evaluated)
    tr.bump("dual.slots_nonzero", len(result.coords))


def _payload_size(store, key: str) -> int:
    # the store keeps one JSON file per key in its directory
    if not store.directory:
        return 0
    path = os.path.join(store.directory, key + ".json")
    return os.path.getsize(path) if os.path.exists(path) else 0


def _cache_get(tr: Tracer, args, kwargs, result) -> None:
    store, key = args[0], args[1]
    if result is None:
        return
    tr.bump("cache.hits")
    # a store reads a key from disk once, the first time it is asked for it
    if (id(store), key) not in tr.seen_keys:
        tr.seen_keys.add((id(store), key))
        tr.bump("cache.bytes_read", _payload_size(store, key))


def _cache_put(tr: Tracer, args, kwargs, result) -> None:
    store, key = args[0], args[1]
    tr.seen_keys.add((id(store), key))
    tr.bump("cache.bytes_written", _payload_size(store, key))


TARGETS: tuple[Target, ...] = (
    Target("ramops.linalg", "rref", after=_rref),
    Target("ramops.linalg:Echelon", "reduce"),
    Target("ramops.operad", "ideal_span", after=_ideal_span),
    Target("ramops.operad", "compose"),
    Target("ramops.operad", "component_basis"),
    Target("ramops.operad", "enumerate_tree_monomials"),
    Target("ramops.operad:Component", "coords"),
    Target("ramops.graphalg", "algebra_basis"),
    Target("ramops.graphalg", "enumerate_graph_monomials"),
    Target("ramops.graphalg", "relation_instances"),
    Target("ramops.graphalg", "path_permutation_sum"),
    Target("ramops.graphalg:GraphComponent", "coords"),
    Target("ramops.graphalg", "multiply", span=False, after=_multiply),
    Target("ramops.graphalg", "differential_algebra", span=False, label="differential"),
    Target("ramops.cooperad", "theta", after=_theta),
    Target("ramops.cooperad", "tensor_normal_form"),
    Target("ramops.cooperad", "theta_relation_kill"),
    Target("ramops.cooperad", "theta_intertwines_differentials"),
    Target("ramops.cooperad", "cooperad_axiom_check"),
    Target("ramops.dual", "dual_compose", after=_dual_compose),
    Target("ramops.dual", "rho"),
    Target("ramops.dual", "conjecture_verdict"),
    Target("ramops.ram", "coproduct"),
    Target("ramops.ram", "differential", span=False),
    Target("ramops.ram", "tensor_normal_form"),
    Target("ramops.ram", "hopf_check"),
    Target("ramops.ram", "distributive_check"),
    Target("ramops.ram", "operad_dims"),
    Target("ramops.forms", "relation_survey"),
    Target("ramops.forms", "eval_element", span=False, label="eval"),
    Target("ramops.cache:ComponentStore", "get", after=_cache_get),
    Target("ramops.cache:ComponentStore", "put", after=_cache_put),
    Target("ramops.suites", "run_suite"),
    Target("ramops.suites", "suite_hopf"),
    Target("ramops.suites", "suite_differentials"),
    Target("ramops.suites", "suite_cooperad"),
    Target("ramops.suites", "suite_lemmas"),
    Target("ramops.suites", "suite_forms"),
    Target("ramops.suites", "suite_distributive"),
)
