#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload sweep-z --seeds 0-9
    python3 perfbench/repeat.py --workload sweep-z --seeds 0-9 --trace 1 --record

Runs ``perfbench/run.py`` once per seed, one run at a time, from the root
of the checkout. For each metric it prints the median and the distance
between the first and third quartiles as a share of the median, and for
end-to-end metrics it flags a spread above a third of the metric's bound
in ``BENCHMARK.json``.

``--record`` stores the medians in ``perfbench/reference.json`` as the
reference numbers of the code measured, and, for untraced runs, the
result digest of each input at each seed, which later runs at those
seeds check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list | None]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"seed {seed}: no result (exit {done.returncode})\n{done.stderr}")
    result = json.loads(lines[-1])
    digests = next((json.loads(l[len("digests "):]) for l in lines if l.startswith("digests ")), None)
    return result, digests


def spread(values: list[float]) -> tuple[float, float]:
    """Median and (Q3 - Q1) / median, with the quartiles statistics.quantiles gives."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--record", action="store_true",
                        help="store medians and digests in perfbench/reference.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    digests = {}
    failed = 0
    for seed in _seeds(args.seeds):
        result, seed_digests = run_once(args.workload, seed, seconds, args.trace)
        failed += result["failed"] or not result["correct"]
        digests[str(seed)] = seed_digests
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + "  ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)

    medians = {}
    steady = True
    print(f"{args.workload}, {len(digests)} runs of {seconds} s, trace {args.trace}")
    for name, vals in values.items():
        med, share = spread(vals)
        medians[name] = {"value": med, "unit": units[name]}
        flag = ""
        if name in bounds and name != "setup_s" and share > bounds[name] / 3:
            flag, steady = "  above a third of the bound", False
        bound = f" (bound {bounds[name]})" if name in bounds else ""
        print(f"  {name:26s} median {med:12.6g} {units[name]:6s} spread {share:7.2%}{bound}{flag}")
    if failed:
        print(f"{failed} runs had failed ops")

    if args.record:
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        kind = "per_layer" if args.trace else "end_to_end"
        ref.setdefault("reference_medians", {}).setdefault(args.workload, {})[kind] = medians
        if not args.trace:
            ref.setdefault("digests", {})[args.workload] = digests
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0 if steady and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
