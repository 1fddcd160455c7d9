#!/usr/bin/env python3
"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

1. Runs every workload at a tiny size, untraced and traced, and checks
   that no op fails, that the result object carries exactly the metrics
   BENCHMARK.json declares with their units, and that the report prints
   every metric by name.
2. Injects a wrong answer, a degree-zero rank one too high from every
   homology call the command line and the limit code make, and checks
   that each workload at full size and seed 0 counts failed ops. The
   sweep rows keep their identities under this fault, so sweep-z
   catches it only through the result digests recorded for seed 0.

Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import importlib
import io
import json
import sys

import run as bench
from tracing import CELL_DIMS, LAYERS

TINY = {
    "tower-q": dict(pool=3, points=10, edges=14, step=2),
    # Scales below every distance, so every row repeats the previous one.
    "sweep-z": dict(pool=3, points=8, scales="1/100:1/10:1/100"),
    "clique-f2": dict(pool=3, vertices=8, edges=14),
    "verify-all": dict(pool=3, trials=1),
}

PRINTED = {
    False: ["ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb", "fail_ratio", "setup_s"],
    True: ([f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "calls")]
           + ["relations.values_s", "complexes.construct_s", "documents.parse_s",
              "documents.serialize_s", "complexes.cells", "homology.boundary_nnz",
              "homology.dense_entries", "cli.sweep_repeat_ratio", "semiuniform.members",
              "trace.overhead_s", "fail_ratio"]
           + [f"complexes.cells_d{k}" for k in range(CELL_DIMS)]),
}


def _declared(kind: str) -> dict:
    with open(bench.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def check_tiny(name: str, trace: bool) -> list[str]:
    spec = dataclasses.replace(bench.WORKLOADS[name], **TINY[name])
    text = io.StringIO()
    result = bench.run(spec, 0, 0.2, trace, stdout=text)
    report = text.getvalue()
    problems = []
    if result["failed"] or not result["correct"]:
        problems.append(f"{result['failed']} of {result['attempted']} ops failed")
    declared = _declared("per_layer" if trace else "end_to_end")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != declared:
        problems.append(f"result metrics {got} != declared {declared}")
    printed = {line.split()[0] for line in report.splitlines() if line.startswith("  ")}
    missing = [m for m in PRINTED[trace] if m not in printed]
    if missing:
        problems.append(f"report lacks {missing}")
    if trace and name == "sweep-z" and not result["metrics"]["cli.sweep_repeat_ratio"]["value"]:
        problems.append("sweep rows below every distance were not counted as repeats")
    return problems


def check_fault(name: str) -> list[str]:
    """A wrong degree-zero rank must show up as failed ops."""
    cli = importlib.import_module("vrips.cli")
    semiuniform = importlib.import_module("vrips.semiuniform")
    true_homology = semiuniform.homology

    def wrong_homology(*args, **kwargs):
        result = true_homology(*args, **kwargs)
        return dataclasses.replace(result, betti=(result.betti[0] + 1,) + result.betti[1:])

    cli.homology = semiuniform.homology = wrong_homology
    try:
        result = bench.run(bench.WORKLOADS[name], 0, 0.5, False,
                           bench.load_reference(name, 0), stdout=io.StringIO())
    finally:
        cli.homology = semiuniform.homology = true_homology
    if result["failed"] == 0 or result["correct"]:
        return [f"injected wrong betti0 not caught ({result['attempted']} ops)"]
    return []


def main() -> int:
    bench.import_vrips()
    bad = 0
    checks = [(f"{n} tiny trace={int(t)}", check_tiny, (n, t))
              for n in bench.WORKLOADS for t in (False, True)]
    checks += [(f"{n} injected fault", check_fault, (n,)) for n in bench.WORKLOADS]
    for label, fn, args in checks:
        problems = fn(*args)
        bad += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {label}" + "".join(f"\n     {p}" for p in problems))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
