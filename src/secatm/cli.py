"""Command-line interface.

Subcommands:
  bounds       compute a bound table for one target in a model file
  paper-suite  recompute the built-in worked examples and diff the tables
  validate     run all model validations without computing bounds

Exit codes: 0 success, 1 validation or usage errors, 2 inconsistent model.
"""

from __future__ import annotations

import argparse
import json
import sys

from .engine import KIND_OF, compute_tables, default_max_m
from .goldens import run_suite
from .modelfile import (
    ModelFileError,
    Query,
    check_query,
    load_model_file,
    parse_mrange,
)
from .tables import InconsistentModel, render_text, table_to_json


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secatm",
        description=(
            "Certified integer bounds for sectional-category-type invariants "
            "computed from finite cohomology models."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="compute a bound table for one target")
    b.add_argument("file", help="model JSON file")
    b.add_argument("target", nargs="?", help="model name (omit to run the file's queries)")
    b.add_argument(
        "invariant", nargs="?", choices=sorted(KIND_OF),
        help="which invariant to bound",
    )
    b.add_argument("mrange", nargs="?", help="m range, e.g. 3 or 1..6")
    b.add_argument("--json", action="store_true", help="machine-readable output")
    b.add_argument("--certificates", action="store_true",
                   help="print cup-length witnesses")
    b.add_argument("--no-literature", action="store_true",
                   help="ignore recorded literature values")
    b.add_argument("--max-m", type=int, default=None,
                   help="largest finite m to compute")
    b.add_argument("--coeff", default=None,
                   help="override the file's default coefficient domain")

    p = sub.add_parser(
        "paper-suite",
        help="recompute the built-in worked examples and diff against "
             "their published values",
    )
    p.add_argument("--json", action="store_true", help="machine-readable output")

    v = sub.add_parser("validate", help="validate a model file")
    v.add_argument("file", help="model JSON file")
    return parser


def _resolve_queries(args, loaded) -> list[Query]:
    if args.target is None:
        if not loaded.queries:
            raise ModelFileError(
                "queries", "no target given and the file declares no queries"
            )
        return loaded.queries
    if args.invariant is None:
        raise ModelFileError("invariant", "an invariant is required with a target")
    ms = parse_mrange(args.mrange, "mrange") if args.mrange else None
    query = Query(args.target, args.invariant, ms)
    check_query(loaded.bundle, query, "target")
    return [query]


def _cmd_bounds(args) -> int:
    if args.max_m is not None and args.max_m < 1:
        print("error: --max-m must be >= 1", file=sys.stderr)
        return 1
    try:
        loaded = load_model_file(args.file, args.coeff)
        queries = _resolve_queries(args, loaded)
    except ModelFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    needed = max((max(q.ms) for q in queries if q.ms), default=0)
    max_m = default_max_m(loaded.bundle) if args.max_m is None else args.max_m
    if max_m is None and needed == 0:
        print(
            "error: no model has a known hdim; pass --max-m or an m range",
            file=sys.stderr,
        )
        return 1
    max_m = needed if max_m is None else max(max_m, needed)

    targets = [(q.invariant, q.target) for q in queries]
    try:
        tables = compute_tables(
            loaded.bundle,
            max_m=max_m,
            use_literature=not args.no_literature,
            targets=targets,
        )
    except InconsistentModel as e:
        print(f"inconsistent model: {e}", file=sys.stderr)
        return 2

    outputs = []
    for q in queries:
        table = tables[(q.invariant, q.target)]
        ms = list(q.ms) if q.ms else table.index
        if args.json:
            outputs.append(table_to_json(table, ms))
        else:
            outputs.append(render_text(table, ms, certificates=args.certificates))
    if args.json:
        payload = outputs[0] if len(outputs) == 1 else outputs
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        sys.stdout.write("\n".join(outputs))
    return 0


def _cmd_paper_suite(args) -> int:
    report = run_suite()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for case in report["cases"]:
            status = "ok" if case["ok"] else "MISMATCH"
            print(f"{case['case']:<24} {status}")
            for line in case["mismatches"]:
                print(f"  {line}")
        total = len(report["cases"])
        passed = sum(1 for c in report["cases"] if c["ok"])
        print(f"{passed}/{total} cases match")
    return 0 if report["ok"] else 1


def _cmd_validate(args) -> int:
    try:
        loaded = load_model_file(args.file)
    except ModelFileError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    b = loaded.bundle
    for name in b.spaces:
        print(f"space {name}: ok")
    for name in b.fibrations:
        print(f"fibration {name}: ok")
    for name in b.map_pairs:
        print(f"map pair {name}: ok")
    print("ok")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "bounds":
        return _cmd_bounds(args)
    if args.command == "paper-suite":
        return _cmd_paper_suite(args)
    return _cmd_validate(args)


def entry_point() -> None:  # pragma: no cover - console script shim
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
