"""Print SHA-256 digests of the program's output, to compare two checkouts.

    python scripts/output_digest.py

The corpus is every table of a full and of a targeted ``compute_tables`` run
of each golden case (``table_to_json``), ``secatm paper-suite --json``, and
``secatm bounds --json`` and ``--certificates`` on every file in
``models/``, with each command's exit code.  Two lines are printed: one
digest with the certificates kept and one with every ``certificate`` field
stripped and the ``--certificates`` text left out.  Equal digests at two
commits mean equal intervals, rule ids and provenance text (and, for the
first line, equal witnesses).  Standard library only; the package is
imported from this checkout's ``src``.
"""

from __future__ import annotations

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


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k != "certificate"}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def digests(items) -> tuple[str, str]:
    full, stripped = hashlib.sha256(), hashlib.sha256()
    for label, output, is_cert_text in items:
        full.update(json.dumps([label, output], sort_keys=True).encode())
        if not is_cert_text:
            stripped.update(json.dumps([label, _strip(output)], sort_keys=True).encode())
    return full.hexdigest(), stripped.hexdigest()


if __name__ == "__main__":
    os.chdir(ROOT)
    with_certs, without = digests(corpus())
    print(f"with certificates:    {with_certs}")
    print(f"without certificates: {without}")
