#!/usr/bin/env python3
"""Benchmark of the vrips command line, run in-process.

    python3 perfbench/run.py --workload tower-q --seed 0 --seconds 25 --trace 0

Run from the root of a checkout. The benchmark imports ``vrips`` from
the checkout's ``src/`` and drives the public entry point
``vrips.cli.run_command(argv, out, err)``. The loop is closed: one
client sends one op at a time, single process and single thread, after
one untimed warm-up op. Each op runs on inputs generated from
``--seed``; the program sees only the generated files and arguments.
Every op's output is checked, and an op whose check fails is counted in
``failed``.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it wraps the layer boundaries from outside (see
``tracing.py``), alternates traced and untraced executions of each op,
and reports per-layer self time and counts per traced op, plus the
tracing overhead. Spans are written to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines above
it print every metric by name with its unit, including those that are
not bounded in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracing import CELL_DIMS, LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 9
MIN_OPS = 11  # the tail percentile needs ten ops beyond it
RECORDED_DIGESTS = 32  # inputs per seed whose result digests reference.json records


@dataclass(frozen=True)
class Op:
    """One command: the files it reads, its arguments, what its check needs."""

    files: dict
    argv: tuple
    expect: object = None


class Mismatch(Exception):
    """An op's output breaks an identity its check expects."""


def _digest(value) -> str:
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _noisy_circle(rng: random.Random, n: int, size: float) -> list[list[str]]:
    """Distance table of n jittered points near a circle, as exact decimals.

    Points sit at angle 2*pi*(k + a)/n and radius size * (1 + r), with a
    uniform in [-0.2, 0.2] and r in [-0.05, 0.05]; their order in the table
    is shuffled.
    """
    pts = []
    for k in range(n):
        angle = 2 * math.pi * (k + rng.uniform(-0.2, 0.2)) / n
        radius = size * (1 + rng.uniform(-0.05, 0.05))
        pts.append((radius * math.cos(angle), radius * math.sin(angle)))
    rng.shuffle(pts)
    return [[f"{math.dist(p, q):.4f}" if p is not q else "0" for q in pts] for p in pts]


def _csv(table: list[list[str]]) -> str:
    labels = [f"p{i}" for i in range(len(table))]
    rows = [",".join([""] + labels)]
    rows += [",".join([label] + row) for label, row in zip(labels, table)]
    return "\n".join(rows) + "\n"


def _results(out: str) -> dict:
    return json.loads(out)["results"]


# --------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class TowerQ:
    """homology over Q on a three-member scale tower of a noisy circle.

    The scale is the edges-th smallest distinct distance, so the smallest
    member has the edges shortest pairs as its edges; the other members
    add step and 2 * step more.
    """

    name: str = "tower-q"
    pool: int = 64
    points: int = 20
    edges: int = 40
    step: int = 4

    def make(self, rng: random.Random, index: int) -> Op:
        table = _noisy_circle(rng, self.points, 1.0)
        vals = sorted({Fraction(table[i][j]) for i in range(self.points)
                       for j in range(i + 1, self.points)})
        scale = vals[self.edges - 1]
        deltas = [(vals[self.edges - 1 + j * self.step] + vals[self.edges + j * self.step]) / 2 - scale
                  for j in range(3)]
        path = f"tower{index}.csv"
        argv = ("homology", path, "--scale", str(scale),
                "--delta", ",".join(str(d) for d in deltas), "--coeffs", "Q")
        return Op({path: _csv(table)}, argv)

    def check(self, op: Op, out: str):
        res = _results(out)
        if len(res["betti"]) != 2 or res["betti"][0] < 1:
            raise Mismatch(f"betti {res['betti']} is not two ranks with a component")
        if res["cohomology_betti"] != res["betti"]:
            raise Mismatch(f"cohomology {res['cohomology_betti']} != homology {res['betti']} over Q")
        if any(res["torsion"]):
            raise Mismatch(f"torsion {res['torsion']} over Q")
        return res


@dataclass(frozen=True)
class SweepZ:
    """sweep over Z across ten scales of a noisy circle.

    The circle's radius of 0.8 makes the largest scales hold several
    neighbours per point, about 0.2 s per op: with lighter ops the run has
    so many that its tail percentile lands among rare stalls of the host.
    """

    name: str = "sweep-z"
    pool: int = 256
    points: int = 24
    radius: float = 0.8
    scales: str = "1/10:1:1/10"

    def make(self, rng: random.Random, index: int) -> Op:
        path = f"sweep{index}.csv"
        argv = ("sweep", path, "--scales", self.scales, "--coeffs", "Z")
        return Op({path: _csv(_noisy_circle(rng, self.points, self.radius))}, argv)

    def check(self, op: Op, out: str):
        lo, hi, step = (Fraction(p) for p in self.scales.split(":"))
        want = [str(lo + k * step) for k in range(int((hi - lo) / step) + 1)]
        lines = out.splitlines()
        if lines[:1] != ["scale\tbetti0\tbetti1"] or [l.split("\t")[0] for l in lines[1:]] != want:
            raise Mismatch(f"expected one row per scale {want}, got {lines}")
        b0 = [int(l.split("\t")[1]) for l in lines[1:]]
        if min(b0) < 1 or any(a < b for a, b in zip(b0, b0[1:])):
            raise Mismatch(f"betti0 {b0} is not positive and non-increasing in scale")
        return out


@dataclass(frozen=True)
class CliqueF2:
    """graph over F2 with cliques up to tetrahedra on a dense random graph.

    The graph has exactly `edges` edges among `vertices` vertices, plus
    up to `isolated` lone vertices, listed in shuffled order. Of
    `candidates` random graphs, the one nearest to `triangles` triangles
    and `tetrahedra` tetrahedra is kept: the op time follows the clique
    counts, and this holds the input size steady from seed to seed.
    """

    name: str = "clique-f2"
    pool: int = 128
    vertices: int = 22
    edges: int = 115
    isolated: int = 2
    candidates: int = 4
    triangles: int = 188  # the expected counts at 22 vertices and 115 edges
    tetrahedra: int = 104

    def make(self, rng: random.Random, index: int) -> Op:
        pairs = [(i, j) for i in range(self.vertices) for j in range(i + 1, self.vertices)]

        def distance(edges):
            tri, tet = _clique_counts(edges, self.vertices)
            return abs(tri - self.triangles) / self.triangles + abs(tet - self.tetrahedra) / self.tetrahedra

        chosen = min((rng.sample(pairs, self.edges) for _ in range(self.candidates)), key=distance)
        lines = [f"v{i} v{j}" for i, j in chosen]
        lines += [f"w{k}" for k in range(rng.randint(0, self.isolated))]
        rng.shuffle(lines)
        path = f"graph{index}.txt"
        argv = ("graph", path, "--max-dim", "3", "--coeffs", "F2")
        return Op({path: "\n".join(lines) + "\n"}, argv, _components(lines))

    def check(self, op: Op, out: str):
        res = _results(out)
        if len(res["betti"]) != 3 or res["betti"][0] != op.expect:
            raise Mismatch(f"betti {res['betti']}: betti0 should be {op.expect} components")
        if any(res["torsion"]):
            raise Mismatch(f"torsion {res['torsion']} over F2")
        return res


def _clique_counts(edges, n: int) -> tuple[int, int]:
    """Triangles and tetrahedra of a graph on vertices 0..n-1."""
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    tri = tet = 0
    for i, j in edges:
        lo, hi = min(i, j), max(i, j)
        common = adj[lo] & adj[hi] & -(1 << (hi + 1))
        tri += common.bit_count()
        while common:
            k = common.bit_length() - 1
            common ^= 1 << k
            tet += (adj[lo] & adj[hi] & adj[k] & -(1 << (k + 1))).bit_count()
    return tri, tet


def _components(lines) -> int:
    """Connected components of an edge list, by union-find."""
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for line in lines:
        ends = [find(v) for v in line.split()]
        for other in ends[1:]:
            parent[other] = ends[0]
    return sum(1 for v in list(parent) if find(v) == v)


@dataclass(frozen=True)
class VerifyAll:
    """verify --suite all, four trials each, on seeds drawn from the run's seed.

    max_dim 1 keeps every matrix tiny, the point of this workload. At the
    default 2, a few 20-point homotopy cylinders over Q set the op time:
    the per-op coefficient of variation is 1.05 there against 0.39 at
    max_dim 1 and four trials.
    """

    name: str = "verify-all"
    pool: int = 256
    trials: int = 4
    max_dim: int = 1

    def make(self, rng: random.Random, index: int) -> Op:
        argv = ("verify", "--suite", "all", "--seed", str(rng.randrange(10**9)),
                "--trials", str(self.trials), "--max-dim", str(self.max_dim))
        return Op({}, argv)

    def check(self, op: Op, out: str):
        lines = out.splitlines()
        tally = re.match(r"(\d+)/(\d+) checks passed", lines[-1]) if lines else None
        if tally is None or tally[1] != tally[2] or any(l.startswith("FAIL") for l in lines):
            raise Mismatch(f"not every check passed: {lines[-1] if lines else 'no output'}")
        return out


WORKLOADS = {w.name: w for w in (TowerQ(), SweepZ(), CliqueF2(), VerifyAll())}


# --------------------------------------------------------------------------
# machine speed
#
# The cores of this kind of host are shared: the same op takes from 0.75 to
# 1.3 times its usual time within minutes. A fixed burst of Fraction and
# dict work over a few megabytes slows with it. In one 170 s trace, the
# medians per 17 s window of tower-q, clique-f2 and verify-all ops had a
# coefficient of variation of 0.09-0.13; op time over burst time had one
# of 0.05-0.09. A 1 ms burst on a small working set tracked the ops less
# well. So every time reported is scaled to reference seconds,
# seconds * CAL_REF_S / (median burst time of the run), with a burst at
# least once a second between ops. Unscaled figures are printed alongside.

CAL_REF_S = 0.035  # burst time on the machine that recorded reference.json
CAL_EVERY_S = 1.0


def calibration_burst() -> float:
    """Seconds taken by a fixed burst of Fraction and dict work, about 35 ms."""
    start = perf_counter()
    table = {(i, i % 97): Fraction(i, 7) for i in range(20000)}
    acc = Fraction(0)
    for (i, j), v in table.items():
        if j == 3:
            acc += v
    sorted(table, key=lambda k: k[1])
    return perf_counter() - start


def speed_factor(bursts) -> float:
    """Reference seconds per measured second: CAL_REF_S over the median burst."""
    return CAL_REF_S / statistics.median(bursts)


# --------------------------------------------------------------------------
# set-up


def _import_seconds() -> float:
    """Time to import vrips in a fresh interpreter, as that interpreter measures it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import vrips; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-I", "-c", code, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def _inputs(workload, seed: int, work: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = [workload.make(rng, i) for i in range(workload.pool)]
    for op in ops:
        for name, text in op.files.items():
            (work / name).write_text(text, encoding="utf-8")
    return [Op(op.files, tuple(str(work / a) if a in op.files else a for a in op.argv), op.expect)
            for op in ops]


def set_up(workload, seed: int, work: Path) -> tuple[float, list[Op]]:
    """Import vrips and generate and write the inputs, several times.

    Returns the median time in reference seconds and the inputs.
    """
    times, bursts = [], []
    for _ in range(SETUP_REPEATS):
        bursts.append(calibration_burst())
        imported = _import_seconds()
        start = perf_counter()
        ops = _inputs(workload, seed, work)
        times.append(imported + perf_counter() - start)
    return statistics.median(times) * speed_factor(bursts), ops


def import_vrips():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("vrips.cli")
    except ImportError as exc:
        raise SystemExit(f"error: cannot import vrips from {SRC}: {exc}") from exc
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: vrips was imported from {cli.__file__}, not from {SRC}")
    return cli


# --------------------------------------------------------------------------
# the loop


class Checker:
    """Checks each op's output and keeps the result digest of each input."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference or []
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def __call__(self, index: int, op: Op, code, out: str):
        self.attempted += 1
        problem = self._problem(index, op, code, out)
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"input {index} ({' '.join(op.argv)}): {problem}")

    def _problem(self, index, op, code, out):
        if isinstance(code, Exception):
            return f"raised {code!r}"
        if code != 0:
            return f"exit code {code}"
        try:
            digest = _digest(self.workload.check(op, out))
        except Mismatch as exc:
            return str(exc)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output ({exc!r})"
        first = self.digests.setdefault(index, digest)
        if digest != first:
            return f"result digest {digest} differs from this input's earlier {first}"
        recorded = self.reference[index] if index < len(self.reference) else None
        if recorded is not None and digest != recorded:
            return f"result digest {digest} differs from the recorded {recorded}"
        return None


def _execute(cli, op: Op):
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        code = cli.run_command(list(op.argv), out, err)
    except Exception as exc:  # a crash is a failed op; the run goes on
        code = exc
    return perf_counter() - start, code, out.getvalue()


def _warm_up(cli, ops):
    """One untimed op, then move everything alive to the collector's permanent
    generation, so that collections during ops scan what a fresh process
    running one command would hold, not the benchmark's own heap."""
    _execute(cli, ops[0])
    gc.collect()
    gc.freeze()


def timed_loop(cli, ops, seconds, check):
    """Untraced ops until the time is up: (latencies, calibration bursts)."""
    _warm_up(cli, ops)
    latencies, bursts = [], []
    deadline = perf_counter() + seconds
    next_burst = 0.0
    while len(latencies) < MIN_OPS or perf_counter() < deadline:
        index = len(latencies) % len(ops)
        if perf_counter() >= next_burst:
            bursts.append(calibration_burst())
            next_burst = perf_counter() + CAL_EVERY_S
        elapsed, code, out = _execute(cli, ops[index])
        check(index, ops[index], code, out)
        latencies.append(elapsed)
    return latencies, bursts


def traced_loop(cli, ops, seconds, check, tracer):
    """Each op once untraced and once traced, in alternating order.

    Returns (untraced latencies, traced latencies, calibration bursts).
    """
    _warm_up(cli, ops)
    plain, traced, bursts = [], [], []
    deadline = perf_counter() + seconds
    next_burst = 0.0
    while len(traced) < MIN_OPS or perf_counter() < deadline:
        index = len(traced) % len(ops)
        if perf_counter() >= next_burst:
            bursts.append(calibration_burst())
            next_burst = perf_counter() + CAL_EVERY_S
        for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
            if with_trace:
                tracer.start_op()
                tracer.install()
            try:
                elapsed, code, out = _execute(cli, ops[index])
            finally:
                tracer.uninstall()
            check(index, ops[index], code, out)
            (traced if with_trace else plain).append(elapsed)
    return plain, traced, bursts


def tail(latencies) -> tuple[float, float, int]:
    """Latency at the highest percentile with ten ops beyond it: (value, percentile, ops)."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], 100 * (n - 10) / n, n


def end_to_end(raw, bursts, setup_s) -> tuple[dict, dict]:
    factor = speed_factor(bursts)
    latencies = [t * factor for t in raw]
    value, pct, n = tail(latencies)
    metrics = {
        "ops_per_s": (n / sum(latencies), "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (value, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = {
        "ops_per_s": f"{n} ops; unscaled {n / sum(raw):.4g} 1/s",
        "op_p50_s": f"unscaled {statistics.median(raw):.4g} s",
        "op_tail_s": f"p{pct:.1f}, 10 of {n} ops beyond",
        "setup_s": f"median of {SETUP_REPEATS}",
    }
    return metrics, notes


def per_layer(tracer, plain, traced, bursts) -> tuple[dict, dict]:
    factor = speed_factor(bursts)
    n = len(traced)
    totals = tracer.layer_totals(factor)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (totals[f"{layer}.self_s"] / n, "s")
        metrics[f"{layer}.calls"] = (totals[f"{layer}.calls"] / n, "count")
    for name in ("relations.values_s", "complexes.construct_s",
                 "documents.parse_s", "documents.serialize_s"):
        metrics[name] = (totals[name] / n, "s")
    counts = tracer.counts
    metrics["complexes.cells"] = (counts["complexes.cells"] / n, "count")
    for k in range(CELL_DIMS):
        metrics[f"complexes.cells_d{k}"] = (counts[f"complexes.cells_d{k}"] / n, "count")
    metrics["homology.boundary_nnz"] = (counts["homology.boundary_nnz"] / n, "count")
    metrics["homology.dense_entries"] = (counts["homology.dense_entries"] / n, "count")
    rows = counts["cli.sweep_rows"]
    metrics["cli.sweep_repeat_ratio"] = (counts["cli.sweep_repeats"] / rows if rows else 0.0, "ratio")
    metrics["semiuniform.members"] = (counts["semiuniform.members"] / n, "count")
    with_trace = statistics.mean(traced) * factor
    without = statistics.mean(plain) * factor
    metrics["trace.overhead_s"] = (with_trace - without, "s")
    notes = {
        "homology.boundary_nnz": "computed from cell counts",
        "homology.dense_entries": "computed from cell counts",
        "trace.overhead_s": f"traced {with_trace:.4g} s - untraced {without:.4g} s per op, {n} pairs",
    }
    return metrics, notes


def run(workload, seed: int, seconds: float, trace: bool, reference=None, stdout=None) -> dict:
    """One measured run; prints the report and returns the result object."""
    stdout = stdout if stdout is not None else sys.stdout
    cli = import_vrips()
    work = HERE / "work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    spans = None
    try:
        setup_s, ops = set_up(workload, seed, work)
        check = Checker(workload, reference)
        if trace:
            tracer = Tracer()
            plain, traced, bursts = traced_loop(cli, ops, seconds, check, tracer)
            metrics, notes = per_layer(tracer, plain, traced, bursts)
            (HERE / "out").mkdir(exist_ok=True)
            spans = HERE / "out" / f"spans-{workload.name}-seed{seed}.jsonl"
            tracer.write_spans(spans)
        else:
            latencies, bursts = timed_loop(cli, ops, seconds, check)
            metrics, notes = end_to_end(latencies, bursts, setup_s)
    finally:
        gc.unfreeze()
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {workload.name}  seed {seed}  {len(ops)} inputs  "
          f"{'traced' if trace else 'untraced'}  closed loop, one client", file=stdout)
    print(f"  times in reference seconds: burst median {statistics.median(bursts) * 1e3:.2f} ms "
          f"of {len(bursts)}, reference {CAL_REF_S * 1e3:.2f} ms", file=stdout)
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:26s} {value:14.6g} {unit}{note}", file=stdout)
    print(f"  {'fail_ratio':26s} {check.failed / check.attempted:14.6g} "
          f"({check.failed} failed of {check.attempted} attempted)", file=stdout)
    if spans is not None:
        print(f"  spans written to {spans.relative_to(ROOT)}", file=stdout)
    for problem in check.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    if not trace:
        digests = [check.digests.get(i) for i in range(min(RECORDED_DIGESTS, len(ops)))]
        print("digests " + json.dumps(digests), file=stdout)
    declared = _declared("per_layer" if trace else "end_to_end")
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if name in declared},
    }
    print(json.dumps(result), file=stdout)
    return result


def _declared(kind: str) -> set[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"] for m in json.load(fh)[kind]}


def load_reference(workload: str, seed: int):
    if not REFERENCE.exists():
        return None
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get("digests", {}).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                 load_reference(args.workload, args.seed))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
