"""Print SHA-256 digests of the program's output, to compare two checkouts.

    python scripts/output_digest.py [--intervals]

The corpus is every table of a full and of a targeted ``compute_tables`` run
of each golden case (``table_to_json``), ``secatm paper-suite --json``, and
``secatm bounds --json`` and ``--certificates`` on every file in
``models/``, with each command's exit code.  Five lines are printed: one
digest with the certificates kept, one with every ``certificate`` field
stripped and the ``--certificates`` text left out, one with every
``detail`` field stripped as well, one over the raw stdout of every
command, and one over every table (``table_to_json``, certificates
stripped) of the benchmark's rules-wide catalogue, all its items in one
bundle at M = 64, with and without literature.  The first three re-parse
``--json`` output, so they cannot see whitespace or escaping.  Equal
digests at two commits mean equal intervals and rule ids (third line),
also equal provenance text (second line), also equal witnesses (first
line), and also the same bytes on stdout (fourth line); the fifth extends
the provenance check to every rule that fires on the catalogue's 131
items.  ``--intervals`` prints one digest over the intervals alone: the
invariant, target and ``(m, lo, hi)`` of every row of every table, plus
exit codes, with provenance and the ``--certificates`` text left out; it
compares two checkouts whose provenance differs.
``scripts/expected_digests.txt`` holds the five lines of the current
output and ``scripts/expected_intervals.txt`` the ``--intervals`` line,
which CI diffs against.
Standard library only; the package is imported from this checkout's
``src``, and the catalogue from its ``perfbench/cases.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from secatm.cli import main  # noqa: E402
from secatm.engine import Bundle, compute_tables  # noqa: E402
from secatm.goldens import all_cases  # noqa: E402
from secatm.tables import table_to_json  # noqa: E402


def _tables(tables) -> list:
    return [table_to_json(tables[key]) for key in sorted(tables)]


def _cli(label, argv, is_cert_text=False) -> tuple[str, dict, bool, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    return (label, {"argv": argv, "exit": code,
                    "stdout": json.loads(text) if "--json" in argv else text},
            is_cert_text, text)


def corpus() -> list[tuple[str, object, bool, str | None]]:
    """``(label, output, is_certificate_text, stdout)`` for every output
    compared; ``stdout`` is the raw text of a CLI command, None for the
    in-process tables."""
    items = []
    for case in all_cases():
        bundle, targets, _ = case.build()
        items.append((f"{case.name} full", _tables(compute_tables(bundle)), False, None))
        bundle, targets, _ = case.build()
        items.append((f"{case.name} targeted",
                      _tables(compute_tables(bundle, targets=targets)), False, None))
    items.append(_cli("paper-suite", ["paper-suite", "--json"]))
    for path in sorted((ROOT / "models").glob("*.json")):
        rel = str(path.relative_to(ROOT))  # run from ROOT, so no absolute path leaks
        items.append(_cli(rel + " json", ["bounds", rel, "--json"]))
        items.append(_cli(rel + " certificates", ["bounds", rel, "--certificates"], True))
    return items


def catalogue_digest() -> str:
    """Digest of every table, certificates stripped, of one bundle holding
    all items of ``perfbench/cases.py``'s rules-wide catalogue, at M = 64,
    with and without literature."""
    spec = importlib.util.spec_from_file_location("perfbench_cases",
                                                  ROOT / "perfbench" / "cases.py")
    cases = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cases)
    makers = {item: make for category in cases.rules_wide_catalogue().values()
              for item, make in category.items()}
    digest = hashlib.sha256()
    for lit in (True, False):
        bundle = Bundle()
        cases.add_items(bundle, makers, sorted(makers))
        tables = compute_tables(bundle, max_m=64, use_literature=lit)
        digest.update(json.dumps([lit, _strip(_tables(tables))], sort_keys=True).encode())
    return digest.hexdigest()


def _strip(obj, keys=("certificate",)):
    if isinstance(obj, dict):
        return {k: _strip(v, keys) for k, v in obj.items() if k not in keys}
    if isinstance(obj, list):
        return [_strip(v, keys) for v in obj]
    return obj


def _intervals(obj):
    """``obj`` with every table reduced to its invariant, target and rows."""
    if isinstance(obj, dict):
        if "entries" in obj:
            return [obj["invariant"], obj["target"],
                    [[e["m"], e["lo"], e["hi"]] for e in obj["entries"]]]
        return {k: _intervals(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_intervals(v) for v in obj]
    return obj


def interval_digest(items) -> str:
    digest = hashlib.sha256()
    for label, output, is_cert_text, _ in items:
        if not is_cert_text:
            digest.update(json.dumps([label, _intervals(output)], sort_keys=True).encode())
    return digest.hexdigest()


def digests(items) -> tuple[str, str, str, str]:
    full, stripped, rules = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    raw = hashlib.sha256()
    for label, output, is_cert_text, stdout in items:
        full.update(json.dumps([label, output], sort_keys=True).encode())
        if not is_cert_text:
            stripped.update(json.dumps([label, _strip(output)], sort_keys=True).encode())
            rules.update(json.dumps([label, _strip(output, ("certificate", "detail"))],
                                    sort_keys=True).encode())
        if stdout is not None:
            raw.update(f"{label}\0{stdout}\0".encode())
    return full.hexdigest(), stripped.hexdigest(), rules.hexdigest(), raw.hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--intervals", action="store_true",
                        help="digest the intervals only, not the provenance")
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.intervals:
        print(f"intervals: {interval_digest(corpus())}")
    else:
        with_certs, without, rule_ids, stdout_bytes = digests(corpus())
        print(f"with certificates:    {with_certs}")
        print(f"without certificates: {without}")
        print(f"intervals, rule ids:  {rule_ids}")
        print(f"stdout bytes:         {stdout_bytes}")
        print(f"rules-wide catalogue: {catalogue_digest()}")
