#!/usr/bin/env python3
"""Run the axiom suites across several seeds and summarize the verdicts.

Exit status is 0 only if every check over every seed passed, and 2 on
bad arguments, so the script doubles as a long-running smoke test:

    python3 scripts/axiom_report.py --seeds 5 --trials 30
"""

import argparse
import sys
from collections import Counter

from vrips.suites import SUITE_NAMES, SuiteConfig, run_suite


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--suite", default="all", choices=list(SUITE_NAMES) + ["all"])
    ap.add_argument("--seed", type=int, default=0, help="first seed (default 0)")
    ap.add_argument("--seeds", type=int, default=3, help="number of seeds (default 3)")
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--max-dim", type=int, default=2, dest="max_dim")
    ap.add_argument("--verbose", action="store_true", help="print every failing witness")
    args = ap.parse_args(argv)

    passed: Counter = Counter()
    failed: Counter = Counter()
    failures = []
    try:
        if args.seeds < 1:
            raise ValueError("--seeds must be at least 1")
        for seed in range(args.seed, args.seed + args.seeds):
            config = SuiteConfig(seed=seed, trials=args.trials, max_dim=args.max_dim)
            for verdict in run_suite(args.suite, config):
                if verdict.passed:
                    passed[verdict.axiom] += 1
                else:
                    failed[verdict.axiom] += 1
                    failures.append((seed, verdict))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    width = max(len(axiom) for axiom in set(passed) | set(failed))
    print(f"{'axiom'.ljust(width)}  pass  fail")
    for axiom in sorted(set(passed) | set(failed)):
        print(f"{axiom.ljust(width)}  {passed[axiom]:4d}  {failed[axiom]:4d}")
    total = sum(passed.values()) + sum(failed.values())
    print(f"\n{sum(passed.values())}/{total} checks passed "
          f"(seeds {args.seed}..{args.seed + args.seeds - 1}, trials {args.trials})")

    if failures and args.verbose:
        print()
        for seed, verdict in failures:
            print(f"seed {seed}: {verdict.axiom} on {verdict.instance}: {verdict.witness}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
