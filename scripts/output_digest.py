"""Print SHA-256 digests of the program's output, to compare two checkouts.

    python scripts/output_digest.py [--intervals]

The corpus is every table of a full and of a targeted ``compute_tables`` run
of each golden case (``table_to_json``), ``secatm paper-suite --json``, and
``secatm bounds --json`` and ``--certificates`` on every file in
``models/``, with each command's exit code.  Three lines are printed: one
digest with the certificates kept, one with every ``certificate`` field
stripped and the ``--certificates`` text left out, and one with every
``detail`` field stripped as well.  Equal digests at two commits mean
equal intervals and rule ids (third line), also equal provenance text
(second line), and also equal witnesses (first line).  ``--intervals``
prints one digest over the intervals alone: the invariant, target and
``(m, lo, hi)`` of every row of every table, plus exit codes, with
provenance and the ``--certificates`` text left out; it compares two
checkouts whose provenance differs.  ``scripts/expected_digests.txt``
holds the three lines of the current output, which CI diffs against.
Standard library only; the package is imported from this checkout's
``src``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from secatm.cli import main  # noqa: E402
from secatm.engine import compute_tables  # noqa: E402
from secatm.goldens import all_cases  # noqa: E402
from secatm.tables import table_to_json  # noqa: E402


def _tables(tables) -> list:
    return [table_to_json(tables[key]) for key in sorted(tables)]


def _cli(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    return {"argv": argv, "exit": code,
            "stdout": json.loads(text) if "--json" in argv else text}


def corpus() -> list[tuple[str, object, bool]]:
    """``(label, output, is_certificate_text)`` for every output compared."""
    items = []
    for case in all_cases():
        bundle, targets, _ = case.build()
        items.append((f"{case.name} full", _tables(compute_tables(bundle)), False))
        bundle, targets, _ = case.build()
        items.append((f"{case.name} targeted",
                      _tables(compute_tables(bundle, targets=targets)), False))
    items.append(("paper-suite", _cli(["paper-suite", "--json"]), False))
    for path in sorted((ROOT / "models").glob("*.json")):
        rel = str(path.relative_to(ROOT))  # run from ROOT, so no absolute path leaks
        items.append((rel + " json", _cli(["bounds", rel, "--json"]), False))
        items.append((rel + " certificates",
                      _cli(["bounds", rel, "--certificates"]), True))
    return items


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
    for label, output, is_cert_text in items:
        if not is_cert_text:
            digest.update(json.dumps([label, _intervals(output)], sort_keys=True).encode())
    return digest.hexdigest()


def digests(items) -> tuple[str, str, str]:
    full, stripped, rules = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for label, output, is_cert_text in items:
        full.update(json.dumps([label, output], sort_keys=True).encode())
        if not is_cert_text:
            stripped.update(json.dumps([label, _strip(output)], sort_keys=True).encode())
            rules.update(json.dumps([label, _strip(output, ("certificate", "detail"))],
                                    sort_keys=True).encode())
    return full.hexdigest(), stripped.hexdigest(), rules.hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--intervals", action="store_true",
                        help="digest the intervals only, not the provenance")
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.intervals:
        print(f"intervals: {interval_digest(corpus())}")
    else:
        with_certs, without, rule_ids = digests(corpus())
        print(f"with certificates:    {with_certs}")
        print(f"without certificates: {without}")
        print(f"intervals, rule ids:  {rule_ids}")
