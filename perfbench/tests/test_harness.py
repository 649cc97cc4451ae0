"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ramops.cache import ComponentStore  # noqa: E402
from ramops.ramanujan import predicted_dims  # noqa: E402


def _synthetic(spans):
    """A tracer holding (name, parent, start, end) spans, ids in list order."""
    tr = tracing.Tracer(targets=())
    for name, parent, start, end in spans:
        tr.name.append(tr._intern(name))
        tr.parent.append(parent)
        tr.start.append(start)
        tr.end.append(end)
    return tr


def test_self_time_subtracts_direct_children_only():
    tr = _synthetic(
        [
            (tracing.ROOT, -1, 0.0, 10.0),
            ("operad.compose", 0, 1.0, 4.0),
            ("linalg.reduce", 1, 2.0, 3.0),
            ("cooperad.theta", 0, 5.0, 9.0),
            ("operad.compose", 3, 6.0, 7.0),
        ]
    )
    self_s = tr.self_times()
    assert self_s == {
        tracing.ROOT: 3.0,
        "operad.compose": 3.0,
        "linalg.reduce": 1.0,
        "cooperad.theta": 3.0,
    }
    assert sum(self_s.values()) == tr.root_duration() == 10.0
    m = tr.metrics()
    assert m["operad.self_s"] == 3.0 and m["bench.self_s"] == 3.0
    assert sum(v for k, v in m.items() if k.endswith(".self_s")) == m["trace.job_s"]


def test_wrappers_nest_spans_and_count(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing, "perf_counter", lambda: float(next(ticks)))
    tr = tracing.Tracer(targets=())
    leaf = tr.span_wrapper(lambda x: x + 1, "linalg.reduce", None)
    counted = tr.count_wrapper(lambda x: x, "graphalg.multiply", None)

    def outer():
        return leaf(counted(1)) + leaf(2)

    assert tr.root(tr.span_wrapper(outer, "cooperad.theta", None)) == 5
    assert list(tr.parent) == [-1, 0, 1, 1]
    assert tr.counts["linalg.reduce_calls"] == 2
    assert tr.counts["graphalg.multiply_calls"] == 1
    # root [0,7], theta [1,6], reduce [2,3] and [4,5]
    assert tr.self_times() == {tracing.ROOT: 2.0, "cooperad.theta": 3.0, "linalg.reduce": 2.0}


def _namespaces():
    mods = {name: mod for name, mod in sys.modules.items() if name.startswith("ramops") or name == "workloads"}
    snap = {name: dict(vars(mod)) for name, mod in mods.items()}
    for target in tracing.TARGETS:
        module, _, cls = target.owner.partition(":")
        if cls:
            owner = getattr(sys.modules[module], cls)
            snap[target.owner] = dict(vars(owner))
    return snap


def test_install_patches_every_binding_and_uninstall_restores_them():
    import ramops.cooperad
    import ramops.dual
    import ramops.linalg

    before = _namespaces()
    theta = ramops.cooperad.theta
    reduce = ramops.linalg.Echelon.__dict__["reduce"]
    tr = tracing.Tracer()
    tr.install()
    try:
        assert ramops.cooperad.theta is not theta
        assert ramops.dual.theta is ramops.cooperad.theta
        assert ramops.cooperad.theta.__wrapped__ is theta
        assert workloads.run_suite is sys.modules["ramops.suites"].run_suite
        assert ramops.linalg.Echelon.__dict__["reduce"] is not reduce
    finally:
        tr.uninstall()
    after = _namespaces()
    assert before.keys() == after.keys()
    for owner, names in before.items():
        for attr, value in names.items():
            assert after[owner][attr] is value, f"{owner}.{attr} not restored"


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    emitted = set(_synthetic([(tracing.ROOT, -1, 0.0, 1.0)]).metrics()) | {"trace.overhead_s"}
    assert set(declared) == emitted
    assert all(tracing.unit(name) == unit for name, unit in declared.items())


def test_scaled_time_drops_the_snippets_and_divides_by_the_slowdown():
    assert speed.scaled(10.3, {"sampled_s": 0.3, "slowdown": 2.0, "samples": 1000}) == 5.0
    assert speed.Sampler().slowdown() == 1.0


def test_sampler_samples_while_active_and_restores_the_signal_state():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    with sampler:
        deadline = time.perf_counter() + 20 * speed.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert sampler.count >= 5 and sampler.total_s > 0
    assert sampler.slowdown() == sampler.total_s / sampler.count / speed.SNIPPET_S
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_expectations():
    assert sum(predicted_dims(5).values()) == 1729
    assert workloads.arnold_prediction(5) == {(0, 0): 1, (1, 1): 10, (2, 2): 35, (3, 3): 50, (4, 4): 24}
    lie_griess_2 = {1: {(0, 0): 1}, 2: {(0, 1): 1, (1, 1): 1}}
    assert workloads.partition_convolution(lie_griess_2, 2) == predicted_dims(2)


def test_smoke_job_arity_3_passes_cold_and_warm(tmp_path):
    cold_checks, cold = workloads.dims_tables(ComponentStore(str(tmp_path)), seed=1, n=3)
    warm_checks, warm = workloads.dims_tables(ComponentStore(str(tmp_path)), seed=2, n=3)
    failed = [name for name, ok in cold_checks + warm_checks if not ok]
    assert len(cold_checks) == len(workloads.BUILD_STEPS) and failed == []
    assert cold == warm
    assert os.listdir(tmp_path), "the cold build wrote no payloads"


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_run", "_trace", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build-n5", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
