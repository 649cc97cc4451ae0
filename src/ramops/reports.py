"""Report records: one canonical machine-readable form plus a pretty printer.

A report is a plain dict of JSON-safe values.  The canonical rendering is
sorted-key JSON with a fixed layout, so identical inputs give byte-identical
bytes; wall-clock timings are only attached on request because they would
break that guarantee.
"""

from __future__ import annotations

import json

SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"


def make_report(
    command: str,
    parameters: dict,
    verdicts: list[dict] | None = None,
    tables: dict | None = None,
    seed: int | None = None,
    presentation_hashes: dict | None = None,
    timings: dict | None = None,
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "ramops",
        "version": TOOL_VERSION,
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "verdicts": verdicts or [],
        "tables": tables or {},
        "presentation_hashes": presentation_hashes or {},
        "timings": timings,
    }


def verdict(check: str, ok: bool, witness=None, **params) -> dict:
    """One check's record; the witness is kept only when the check failed."""
    v = {"check": check, "pass": bool(ok), "params": params}
    if witness is not None and not ok:
        v["witness"] = witness
    return v


def informational(check: str, **params) -> dict:
    """A finding's record: reported in the params, it always passes."""
    return {"check": check, "pass": True, "params": params, "informational": True}


def all_pass(report: dict) -> bool:
    return all(v.get("pass", False) for v in report["verdicts"])


def dims_to_table(dims: dict) -> list[list[int]]:
    """Bidegree table as a sorted [[h, w, dim], ...] list (JSON-safe)."""
    return sorted([h, w, d] for (h, w), d in dims.items())


def canonical_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_dims_table(name: str, table: list[list[int]]) -> str:
    lines = [f"{name}:"]
    lines.append("  h  w  dim")
    total = 0
    for h, w, d in table:
        lines.append(f"  {h:<2} {w:<2} {d}")
        total += d
    lines.append(f"  total {total}")
    return "\n".join(lines)


def render_pretty(report: dict) -> str:
    lines = [f"ramops {report['command']}"]
    params = report.get("parameters") or {}
    if params:
        lines.append("  " + "  ".join(f"{k}={params[k]}" for k in sorted(params)))
    if report.get("seed") is not None:
        lines.append(f"  seed={report['seed']}")
    for name in sorted(report.get("tables", {})):
        table = report["tables"][name]
        if isinstance(table, list) and table and isinstance(table[0], list) and len(table[0]) == 3:
            lines.append(render_dims_table(name, table))
        else:
            lines.append(f"{name}: {json.dumps(table, sort_keys=True)}")
    for v in report.get("verdicts", []):
        status = "PASS" if v.get("pass") else "FAIL"
        params = v.get("params", {})
        suffix = " ".join(f"{k}={params[k]}" for k in sorted(params))
        lines.append(f"{status} {v.get('check')}" + (f" [{suffix}]" if suffix else ""))
        if not v.get("pass") and v.get("witness") is not None:
            lines.append(f"  witness: {json.dumps(v['witness'], sort_keys=True)}")
    if report.get("timings"):
        for k in sorted(report["timings"]):
            lines.append(f"time {k}: {report['timings'][k]:.3f}s")
    return "\n".join(lines) + "\n"
