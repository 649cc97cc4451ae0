"""One set-up or one job of a workload, in a fresh interpreter.

    python3 perfbench/job.py setup <workload> --store DIR --seed N
    python3 perfbench/job.py run <workload> --store DIR --seed N [--spans FILE]

``run.py`` starts this script once per set-up and once per job, with
``src`` on ``PYTHONPATH``.  The last line of standard output is one JSON
object.  A run measures from the first library call to the checked result;
with ``--spans`` the job is traced and its spans are written to FILE.

The child samples the machine's speed (see ``speed.py``): a set-up
reports the samples of its whole life, a job those taken while it ran, and
``job_s`` is the job's time at the unloaded machine's speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from speed import Sampler, scaled


def prepare(parser: argparse.ArgumentParser, args: argparse.Namespace):
    """Import the library, build the presentations and open the store."""
    import workloads
    from ramops.cache import ComponentStore

    if args.workload not in workloads.JOBS:
        parser.error(f"unknown workload {args.workload!r}")
    store = ComponentStore(args.store)
    workloads.presentations()
    return workloads, store


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="job.py")
    parser.add_argument("action", choices=("setup", "run"))
    parser.add_argument("workload")
    parser.add_argument("--store", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    sampler = Sampler()

    if args.action == "setup":
        with sampler:
            workloads, store = prepare(parser, args)
            digest = workloads.populate(args.workload, store, args.seed)
        print(json.dumps({"digest": digest, **sampler.report()}))
        return 0

    workloads, store = prepare(parser, args)
    job = workloads.JOBS[args.workload]
    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        with sampler:
            started = time.perf_counter()
            if tracer is None:
                checks, report = job(store, args.seed)
            else:
                checks, report = tracer.root(job, store, args.seed)
            wall_s = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.uninstall()
    sampled = sampler.report()
    out = {
        "job_s": scaled(wall_s, sampled),
        "wall_s": wall_s,
        **sampled,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(checks),
        "failed": [name for name, ok in checks if not ok],
        "digest": workloads.digest(report),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
