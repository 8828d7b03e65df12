"""Print how tight the computed intervals are, per invariant, to compare two
checkouts.

    python scripts/tightness_ledger.py

The output digests say whether the output changed; this ledger says whether
it got tighter or looser.  For each corpus, with and without literature,
and for each invariant, it prints the number of tables and three counts:

* ``closed``: inf entries with lo = hi;
* ``unbounded``: inf entries with no upper bound;
* ``open rows``: stored finite rows (m below the table's ``stable_from``)
  with lo != hi, out of all stored finite rows.

The corpora are one bundle holding every item of the benchmark's rules-wide
catalogue (``perfbench/cases.py``), and each file of ``models/``, all at
M = 64 with every table computed.  ``scripts/expected_ledger.txt`` holds the
current output, which CI diffs against: a change that moves a count updates
that file and says so.  Standard library only; the package is imported from
this checkout's ``src``, and ``perfbench/`` is read, not edited.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from secatm.engine import compute_tables  # noqa: E402
from secatm.modelfile import load_model_file  # noqa: E402
from secatm.tables import INF  # noqa: E402

from output_digest import catalogue  # noqa: E402

MAX_M = 64
INVARIANTS = ("cat", "tc", "secat", "dm", "hdm")


def counts(tables) -> dict:
    """invariant -> [tables, closed inf entries, unbounded inf entries, open
    finite rows, finite rows] over ``tables``, a ``compute_tables`` result."""
    out = {inv: [0, 0, 0, 0, 0] for inv in INVARIANTS}
    for (inv, _), table in tables.items():
        row = out[inv]
        lo, hi = table.lo(INF), table.hi(INF)
        finite = [m for m in table.stored if m != INF]
        row[0] += 1
        row[1] += lo == hi
        row[2] += hi is None
        row[3] += sum(table.lo(m) != table.hi(m) for m in finite)
        row[4] += len(finite)
    return out


def corpora() -> list:
    """(label, function building a fresh bundle) of every corpus."""
    items, build = catalogue()
    out = [(f"rules-wide catalogue, {items} items", build)]
    for path in sorted((ROOT / "models").glob("*.json")):
        out.append((f"models/{path.name}",
                    lambda path=str(path): load_model_file(path).bundle))
    return out


def ledger() -> list[str]:
    lines = []
    for label, build in corpora():
        for lit in (True, False):
            lines.append(f"{label}, M = {MAX_M}, "
                         f"{'with' if lit else 'without'} literature:")
            lines.append(f"  {'':6} {'tables':>6} {'closed':>6} {'unbounded':>9} "
                         f"{'open rows':>13}")
            table = counts(compute_tables(build(), max_m=MAX_M, use_literature=lit))
            total = [sum(col) for col in zip(*table.values())]
            for inv, (n, closed, unbounded, open_rows, rows) in [*table.items(),
                                                                 ("all", total)]:
                lines.append(f"  {inv:6} {n:6} {closed:6} {unbounded:9} "
                             f"{f'{open_rows}/{rows}':>13}")
    return lines


if __name__ == "__main__":
    print("\n".join(ledger()))
