"""Command line front end.

Subcommands: homology (distance table at one scale), graph (edge list),
closure (neighborhood document plus a cover), sweep (scale range as
TSV), verify (seeded axiom suites). Machine-readable output is a JSON
result document on stdout; sweeps emit TSV. Exit codes: 0 success,
1 a verification failed, 2 bad input.

One routine reads, checks and echoes the input of every document
command: it reads and parses the file, refuses a document of the wrong
kind, parses --coeffs, and writes the JSON envelope with the shared
parameters. Each command only computes; sweep shares the reading and
the coefficients and writes its own TSV.

Reported betti numbers stop below the enumeration cap: with a cap of
max_dim, dimensions 0 through max_dim - 1 are exact no matter what got
truncated at the cap, so that is what the reports contain.

Those groups are homotopy invariants of the flag complex, so where a
command reports nothing else, it edge-collapses a symmetric relation
before building the complex: graph without --subset, closure, and each
sweep row. Pairs, non-symmetric relations and the scale towers of the
homology command build the complex of the relation as given.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys

from .closure import ii_relation, vietoris_relation
from .documents import (
    ParseError,
    document_cover,
    document_to_closure,
    document_to_complex,
    document_to_metric,
    document_to_relation,
    exact_number,
    guess_format,
    parse_document,
    result_document,
    scale_range,
    serialize_result,
)
from .complexes import ComplexPair, full_subcomplex, pair_complex, vr_complex
from .homology import INTEGERS, RATIONALS, Coefficients, homology, prime_field
from .relations import closing_offset, collapse, is_symmetric, scale_base
from .semiuniform import limit_homology
from .suites import SUITE_NAMES, SuiteConfig, run_suite

OK, FAILED, BAD_INPUT = 0, 1, 2


def _parse_coeffs(text: str) -> Coefficients:
    if text == "Z":
        return INTEGERS
    if text == "Q":
        return RATIONALS
    if text.startswith("F") and text[1:].isdigit():
        return prime_field(int(text[1:]))
    raise ValueError(f"unknown coefficients {text!r}: use Z, Q, or F<prime>")


def _load(args, kinds: tuple[str, ...], wrong_kind: str):
    """Read and parse the input file (less a leading UTF-8 BOM), refuse other kinds, parse --coeffs."""
    with open(args.input, "r", encoding="utf-8-sig") as fh:
        doc = parse_document(fh.read(), args.format or guess_format(args.input))
    if doc.kind not in kinds:
        raise ValueError(wrong_kind)
    return doc, _parse_coeffs(args.coeffs)


def _document_command(command: str, kinds: tuple[str, ...], wrong_kind: str):
    """Turn compute(args, doc, coeffs, subset) into a JSON document command.

    compute gets the loaded document, the coefficients and the sorted
    distinct --subset points (None without one). It returns its own
    parameters, the homology to report below the cap, and any further
    results.
    """
    def wrap(compute):
        def run(args, out) -> int:
            doc, coeffs = _load(args, kinds, wrong_kind)
            subset = sorted(set(args.subset)) if getattr(args, "subset", None) else None
            own, result, extra = compute(args, doc, coeffs, subset)
            params = {"input": args.input, "max_dim": args.max_dim,
                      "coefficients": args.coeffs, "reduced": args.reduced}
            if subset is not None:
                params["subset"] = subset
            results = {"betti": list(result.betti[: args.max_dim]),
                       "torsion": [list(t) for t in result.torsion[: args.max_dim]], **extra}
            doc_out = result_document(command, {**params, **own}, results)
            print(serialize_result(doc_out), end="", file=out)
            return OK
        return run
    return wrap


@_document_command("homology", ("distance", "complex"),
                   "homology reads a distance table or a complex document; "
                   "use the graph or closure command instead")
def _cmd_homology(args, doc, coeffs, subset):
    if doc.kind == "complex":
        if args.scale is not None or args.delta is not None:
            raise ValueError("--scale and --delta apply to distance tables, not complex documents")
        k = document_to_complex(doc, max_dim=args.max_dim)
        obj = k if subset is None else ComplexPair(k, full_subcomplex(k, subset))
        return {}, homology(obj, coeffs, reduced=args.reduced), {}
    d = document_to_metric(doc)
    if args.scale is None:
        raise ValueError("a distance table needs --scale")
    q = exact_number(args.scale)
    deltas = [exact_number(t) for t in args.delta.split(",")] if args.delta else [closing_offset(d, q)]
    report = limit_homology(scale_base(d, q, deltas), subset=subset, coeffs=coeffs,
                            max_dim=args.max_dim, reduced=args.reduced)
    extra = {"members": report.member_count,
             "stabilized": all(m.agrees for m in report.stabilization)}
    if report.cohomology_result is not None:
        extra["cohomology_betti"] = list(report.cohomology_result.betti[: args.max_dim])
    return {"scale": q, "deltas": deltas}, report.result, extra


@_document_command("graph", ("graph",), "the graph command needs an edge list or graph document")
def _cmd_graph(args, doc, coeffs, subset):
    rel = document_to_relation(doc)
    # For a symmetric relation this is the limit over its one-member base.
    if subset is not None:
        obj = pair_complex(rel, subset, args.max_dim)
    else:
        # Undirected edges give a symmetric relation by construction.
        if not doc.directed or is_symmetric(rel):
            rel = collapse(rel)
        obj = vr_complex(rel, args.max_dim)
    return {"directed": doc.directed}, homology(obj, coeffs, reduced=args.reduced), {}


@_document_command("closure", ("closure",), "the closure command needs a closure document")
def _cmd_closure(args, doc, coeffs, subset):
    c, cover = document_to_closure(doc), document_cover(doc)
    # Both cover relations are symmetric.
    rel = ii_relation(c, cover) if args.relation == "interior" else vietoris_relation(cover)
    result = homology(vr_complex(collapse(rel), args.max_dim), coeffs, reduced=args.reduced)
    return {"relation": args.relation}, result, {}


def _cmd_sweep(args, out) -> int:
    doc, coeffs = _load(args, ("distance",), "sweep needs a distance table")
    d = document_to_metric(doc)
    scales = scale_range(args.scales)
    print("scale\t" + "\t".join(f"betti{k}" for k in range(args.max_dim)), file=out)
    for q in scales:
        # A one-member base: its limit is the homology of that member.
        (member,) = scale_base(d, q, [closing_offset(d, q)]).members
        result = homology(vr_complex(collapse(member), args.max_dim), coeffs,
                          reduced=args.reduced)
        row = [str(q)] + [str(b) for b in result.betti[: args.max_dim]]
        print("\t".join(row), file=out)
    return OK


def _cmd_verify(args, out) -> int:
    config = SuiteConfig(seed=args.seed, trials=args.trials, max_dim=args.max_dim)
    verdicts = run_suite(args.suite, config)
    for v in verdicts:
        mark = "PASS" if v.passed else "FAIL"
        line = f"{mark} {v.axiom}: {v.instance}"
        if not v.passed:
            line += f" | {v.witness}"
        print(line, file=out)
    passed = sum(1 for v in verdicts if v.passed)
    print(f"{passed}/{len(verdicts)} checks passed (suite={args.suite}, seed={args.seed})",
          file=out)
    return OK if passed == len(verdicts) else FAILED


def _cap(text: str) -> int:
    """--max-dim: an enumeration cap of at least 1, so a report has a degree."""
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return cap


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing never mutates it."""
    parser = argparse.ArgumentParser(
        prog="vrips",
        description="Vietoris-Rips homology over finite semi-uniform structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_subset=True):
        p.add_argument("input", help="input file (csv distance table, edge list, or json)")
        p.add_argument("--format", choices=["csv", "edges", "json"],
                       help="override format sniffing by extension")
        p.add_argument("--max-dim", type=_cap, default=2, dest="max_dim",
                       help="enumeration cap, at least 1; betti numbers are reported below it")
        p.add_argument("--coeffs", default="Z",
                       help="coefficients: Z, Q, or F<prime> (default Z)")
        p.add_argument("--reduced", action="store_true",
                       help="reduce the degree-zero rank by one")
        if with_subset:
            p.add_argument("--subset", type=int, nargs="+", metavar="POINT",
                           help="compute relative to this vertex subset")

    p_h = sub.add_parser("homology", help="homology of a distance table at one scale")
    common(p_h)
    p_h.add_argument("--scale", help="scale q (exact: 3/5 or 0.6)")
    p_h.add_argument("--delta", help="comma-separated base offsets (default: auto)")
    p_h.set_defaults(fn=_cmd_homology)

    p_g = sub.add_parser("graph", help="homology of an edge-list graph")
    common(p_g)
    p_g.set_defaults(fn=_cmd_graph)

    p_c = sub.add_parser("closure", help="homology from a closure document's cover")
    common(p_c, with_subset=False)
    p_c.add_argument("--relation", choices=["interior", "vietoris"], default="interior",
                     help="relation extracted from the cover (default interior)")
    p_c.set_defaults(fn=_cmd_closure)

    p_s = sub.add_parser("sweep", help="betti numbers across a scale range, as TSV")
    common(p_s, with_subset=False)
    p_s.add_argument("--scales", required=True, help="inclusive range LO:HI:STEP, exact")
    p_s.set_defaults(fn=_cmd_sweep)

    p_v = sub.add_parser("verify", help="run seeded axiom verification suites")
    p_v.add_argument("--suite", default="all", choices=list(SUITE_NAMES) + ["all"])
    p_v.add_argument("--seed", type=int, default=0)
    p_v.add_argument("--trials", type=int, default=20)
    p_v.add_argument("--max-dim", type=_cap, default=2, dest="max_dim")
    p_v.set_defaults(fn=_cmd_verify)
    return parser


def run_command(argv, out=None, err=None) -> int:
    """Parse and run one command; returns the exit code instead of exiting."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return BAD_INPUT if exc.code not in (0, None) else OK
    try:
        return args.fn(args, out)
    except (ParseError, ValueError, OSError, IndexError) as exc:
        print(f"error: {exc}", file=err)
        return BAD_INPUT


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
