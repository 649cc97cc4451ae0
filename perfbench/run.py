"""ramops benchmark: exact-verification workloads timed in fresh interpreters.

    python3 perfbench/run.py --workload build-n5 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The benchmark first sets the workload up
(in fresh child interpreters, several times, reporting the median), then
runs jobs one at a time, each in a fresh single-threaded child interpreter
with its own copy of the set-up component store.  The number of jobs
follows from ``--seconds`` alone (see ``JOB_S``), so it is the same on
every commit.  Every job's results are checked exactly.

Every set-up and job samples the machine's speed from inside its
child (``speed.py``), and its time is reported at the speed of the
unloaded machine: on a shared host the machine's speed drifts by a third
within minutes, and raw wall times of the same work spread with it.

With ``--trace 0`` the last line of output carries the end-to-end metrics;
with ``--trace 1`` the run alternates untraced and traced jobs and the last
line carries the per-layer metrics of the median traced job.  All
scratch files live under ``perfbench/_run`` and are removed at the end;
a traced run keeps the spans of its median traced job in ``perfbench/_trace``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import tracing  # noqa: E402
from speed import scaled  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(HERE, "_run")
TRACE_DIR = os.path.join(HERE, "_trace")

# exact checks per job, counted as failed when a job crashes or times out
CHECKS = {"build-n5": 6, "verify-n4": 810, "conjecture-n4": 16, "warm-load": 6}
WORKLOADS = tuple(CHECKS)
# set-ups per run; warm-load's set-up is a whole cold arity-5 build
SETUPS = {"build-n5": 5, "verify-n4": 3, "conjecture-n4": 3, "warm-load": 1}
# wall seconds of one job, interpreter start included, on the 2-vCPU Xeon VM
# the benchmark was written on.  A run makes ceil(--seconds / JOB_S) jobs,
# and at least MIN_JOBS, so every commit is measured on the same number of
# jobs whatever its speed.  Jobs of build-n5 and verify-n4 take 10 to 15 s;
# two or three of them keep one badly scaled job from setting the run's job_s.
JOB_S = {"build-n5": 16.5, "verify-n4": 10.5, "conjecture-n4": 1.9, "warm-load": 0.5}
MIN_JOBS = {"build-n5": 2, "verify-n4": 3}
# every child must have ended this long after the run started
DEADLINE_S = 170.0
# directories of the checkout that a run may change (or that are not the repo's)
UNTRACKED = {os.path.basename(HERE), ".bench_build", ".git"}


def tree_digest(root: str) -> dict[str, str]:
    """sha256 of every file of the checkout outside the benchmark's own directories."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        if dirpath == root:
            dirnames[:] = [d for d in dirnames if d not in UNTRACKED]
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_record(seed: int) -> dict:
    """Machine facts read from /proc, so runs on a shared machine can be compared."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
        with open("/proc/loadavg", encoding="utf-8") as fh:
            load = " ".join(fh.read().split()[:3])
    except OSError:
        load = "unknown"
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg": load,
    }


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("RAMOPS_CACHE_DIR", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list, cwd: str, timeout: float) -> tuple[dict | None, float, str]:
    """Run job.py with ``args``; returns (last-line JSON or None, wall seconds, error)."""
    cmd = [sys.executable, os.path.join(HERE, "job.py")] + args
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - started, f"timed out after {timeout:.0f}s"
    wall = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, wall, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    try:
        return json.loads(lines[-1]), wall, ""
    except json.JSONDecodeError:
        return None, wall, f"unreadable result line: {lines[-1][:200]}"


def percentile_line(values: list[float]) -> str | None:
    """The highest percentile with at least ten jobs beyond it, when there is one."""
    n = len(values)
    if n < 11:
        return None
    k = n - 10
    return f"job_s p{100 * k // n}: {sorted(values)[k - 1]:.4f} s ({k}th of {n} jobs, 10 beyond)"


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.deadline = self.started + DEADLINE_S
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()
        self.setup_walls: list[tuple[float, float]] = []

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {name}")

    def setup(self, work: str) -> tuple[list[float], str | None]:
        times: list[float] = []
        template = None
        for i in range(SETUPS[self.workload]):
            store = os.path.join(work, f"setup-{i}")
            os.makedirs(store)
            out, wall, err = run_child(
                ["setup", self.workload, "--store", store, "--seed", str(self.seed)],
                work,
                self.remaining(),
            )
            if out is None:
                self.errors.append(f"set-up failed: {err}")
                return times, None
            times.append(scaled(wall, out))
            self.setup_walls.append((wall, out["slowdown"]))
            if out.get("digest"):
                self.digests.add(out["digest"])
            if template is not None:
                shutil.rmtree(template)
            template = store
        return times, template

    def job_count(self) -> int:
        count = max(MIN_JOBS.get(self.workload, 1), math.ceil(self.seconds / JOB_S[self.workload]))
        return max(count, 2) if self.trace else count

    def jobs(self, work: str, template: str) -> list[dict]:
        done: list[dict] = []
        longest = {False: 0.0, True: 0.0}
        for index in range(self.job_count()):
            traced = self.trace and index % 2 == 1
            if self.remaining() < max(1.2 * longest[traced], 1.0):
                self.errors.append(f"run deadline reached after {index} jobs")
                break
            store = os.path.join(work, f"job-{index}")
            shutil.copytree(template, store)
            spans = os.path.join(work, f"spans-{index}.tsv.gz") if traced else None
            args = ["run", self.workload, "--store", store, "--seed", str(self.seed)]
            out, wall, err = run_child(args + (["--spans", spans] if spans else []), work, self.remaining())
            shutil.rmtree(store)
            longest[traced] = max(longest[traced], wall)
            if out is None:
                self.errors.append(f"job {index} failed: {err}")
                self.check(f"job {index} completed", False)
                self.attempted += CHECKS[self.workload] - 1
                self.failed += CHECKS[self.workload] - 1
                break
            self.attempted += out["attempted"]
            self.failed += len(out["failed"])
            self.errors.extend(f"job {index} check failed: {name}" for name in out["failed"])
            self.digests.add(out["digest"])
            out["traced"] = traced
            out["spans"] = spans
            done.append(out)
        return done


def summarize(run: Run, setup_times: list[float], jobs: list[dict]) -> dict:
    untraced = [j for j in jobs if not j["traced"]]
    job_times = [j["job_s"] for j in untraced]
    lines = []
    metrics: dict = {}
    if run.trace:
        traced = sorted((j for j in jobs if j["traced"]), key=lambda j: j["job_s"])
        if traced and untraced:
            rep = traced[(len(traced) - 1) // 2]
            layers = dict(rep["layers"])
            layers["trace.overhead_s"] = rep["job_s"] - statistics.median(job_times)
            parts = sum(v for k, v in layers.items() if k.endswith(".self_s"))
            run.check("layer self times add up to trace.job_s", abs(parts - layers["trace.job_s"]) < 1e-6)
            os.makedirs(TRACE_DIR, exist_ok=True)
            shutil.copyfile(rep["spans"], os.path.join(TRACE_DIR, f"{run.workload}.spans.tsv.gz"))
            metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in sorted(layers.items())}
            lines.append(f"traced jobs: {len(traced)}, untraced jobs: {len(untraced)}")
            for k in sorted(layers):
                lines.append(f"{k} {layers[k]:.6g} {metrics[k]['unit']}")
    elif job_times and setup_times:
        attempted = max(run.attempted, 1)
        metrics = {
            "job_s": {"value": statistics.median(job_times), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(j["peak_rss_mb"] for j in untraced), "unit": "MB"},
            "pass_ratio": {"value": (attempted - run.failed) / attempted, "unit": "ratio"},
        }
        lines.append(f"jobs: {len(job_times)}, job_s each: " + " ".join(f"{t:.3f}" for t in job_times))
        lines.append("  wall s each: " + " ".join(f"{j['wall_s']:.3f}" for j in untraced))
        lines.append("  slowdown each: " + " ".join(f"{j['slowdown']:.3f}" for j in untraced))
        pct = percentile_line(job_times)
        if pct:
            lines.append(pct)
        lines.append(f"setups: {len(setup_times)}, setup_s each: " + " ".join(f"{t:.3f}" for t in setup_times))
        lines.append("  wall s each: " + " ".join(f"{w:.3f}" for w, _ in run.setup_walls))
        lines.append("  slowdown each: " + " ".join(f"{d:.3f}" for _, d in run.setup_walls))
        for k, m in metrics.items():
            lines.append(f"{k} {m['value']:.6g} {m['unit']}")
        lines.append(f"fail_ratio {run.failed / attempted:.6g} ratio ({run.failed} of {attempted} checks failed)")
    print("\n".join(lines))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "ramops", "__init__.py")):
        sys.stderr.write(f"error: the ramops sources are not at {SRC}; run from a checkout of the repository\n")
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = run_record(args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("record: " + json.dumps(record, sort_keys=True))
    before = tree_digest(ROOT)
    os.makedirs(RUN_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR)
    try:
        setup_times, template = run.setup(work)
        jobs = run.jobs(work, template) if template else []
        run.check("canonical reports identical across jobs", len(run.digests) == 1)
        changed = sorted(set(before.items()) ^ set(tree_digest(ROOT).items()))
        run.check("repository files unchanged", not changed)
        if changed:
            run.errors.append("changed: " + ", ".join(sorted({p for p, _ in changed})[:10]))
        metrics = summarize(run, setup_times, jobs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(RUN_DIR)
        except OSError:
            pass
    for err in run.errors[:20]:
        print(f"error: {err}", file=sys.stderr)
    correct = run.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1), "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
