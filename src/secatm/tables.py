"""Integer intervals per m with provenance, plus text and JSON rendering.

A bound table maps m in {1..M, inf} to an interval [lo, hi] (hi may be
unbounded).  Intervals only ever narrow; every narrowing records which rule
fired, a human-readable detail string and, for cup-length lower bounds, the
witnessing certificate.  A narrowing that would cross over raises
``InconsistentModel`` carrying both provenance chains.

Every m-dimensional invariant is non-decreasing in m and at most its
classical value, and a table keeps its entries so: a lower bound on row m
raises the stored rows above it (``monotone_m``, ``at least the m=<m>
entry``; ``classical_cap``, ``dominates the m=<m> entry`` on inf), and an
upper bound lowers the rows below it (``monotone_m``, ``at most the m=<m>
entry``; ``classical_cap``, ``at most the classical value``, from inf).
Each walk stops at the first row already as tight, and a crossing on the
walk raises at the row where it crossed.

A table with dimension parameter d (the m from which the m-dimensional
invariant equals the classical one: the homotopy dimension of the space,
fibration base or pair domain, twice it for tc) stores rows only for m < d
and for inf: every entry m >= d *is* the inf entry.  The contract for such a
tail row m:

* its interval is the inf interval, so intervals read the same on every row
  of ``index``, and a narrowing at m narrows the inf row;
* its provenance is one ``stabilize`` event per narrowed side of the inf
  interval (a lower bound above 0, a finite upper bound), carrying the inf
  value and the detail ``equals the m=inf entry (stable from m >= d)``; the
  events behind that value are listed on the inf row.

``events``, ``lo``, ``hi`` and ``interval`` answer for every m in
``index``, and ``render_text`` and ``table_to_json`` list every row asked
for.  Tables without a dimension parameter store every row.  ``apply``
narrows by three more facts on the table alone, as one fixpoint step.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _escape

__all__ = [
    "INF",
    "Interval",
    "ProvenanceEvent",
    "BoundTable",
    "InconsistentModel",
    "render_text",
    "table_to_json",
    "table_from_json",
    "write_json",
]

INF = "inf"  # table column for the classical (uncapped) invariant


class InconsistentModel(Exception):
    """Two sound bounds crossed; the model's axioms contradict each other."""

    def __init__(self, invariant, target, m, lo_events, hi_events):
        self.invariant = invariant
        self.target = target
        self.m = m
        self.lo_events = lo_events
        self.hi_events = hi_events
        lo = lo_events[-1].value if lo_events else 0
        hi = hi_events[-1].value if hi_events else None
        super().__init__(
            f"{invariant}[{target}] at m={m}: lower bound {lo} exceeds upper "
            f"bound {hi}; lower chain: {[e.describe() for e in lo_events]}; "
            f"upper chain: {[e.describe() for e in hi_events]}"
        )


@dataclass
class ProvenanceEvent:
    rule: str
    side: str  # "lo" or "hi"
    value: int
    detail: str
    certificate: object = None

    def describe(self) -> str:
        return f"{self.rule}: {self.side} -> {self.value} ({self.detail})"


@dataclass
class Interval:
    """Closed integer interval [lo, hi]; hi None means unbounded above."""

    lo: int = 0
    hi: int | None = None

    def is_exact(self) -> bool:
        return self.hi is not None and self.lo == self.hi

    def as_pair(self) -> tuple[int, int | None]:
        return (self.lo, self.hi)

    def format(self) -> str:
        if self.is_exact():
            return f"= {self.lo}"
        if self.hi is None:
            return f"[{self.lo}, inf)"
        return f"[{self.lo}, {self.hi}]"


class BoundTable:
    """Per-m intervals for one invariant of one model, with provenance.

    ``dim`` is the dimension parameter: entries m >= dim are the inf entry
    (see the module docstring).  ``rows`` and ``log`` hold the intervals and
    events of the stored rows ``stored``; ``interval`` and ``events`` look
    them up at any m of ``index``.  ``narrowings`` counts the narrowings
    that took effect, so a reader can tell whether the table moved since it
    last looked.  ``pi_row`` is ``(k, detail)`` when the inf entry equals
    entry k >= 1 (see ``apply``).
    """

    def __init__(self, invariant: str, target: str, max_m: int, dim: int | None = None,
                 pi_row: tuple | None = None):
        self.invariant = invariant
        self.target = target
        self.max_m = max_m
        self.dim = dim
        self.pi_row = pi_row
        # first m whose entry is the inf entry; max_m + 1 when none is
        self.stable_from = max_m + 1 if dim is None else min(max(dim, 1), max_m + 1)
        self.stored: list = [*range(1, self.stable_from), INF]
        self.rows: dict = {m: Interval() for m in self.stored}
        self.log: dict = {m: [] for m in self.stored}
        self.lower_bounds_applied = False
        self.narrowings = 0

    @property
    def events(self) -> Mapping:
        # made on each access: a table that held its view would be a
        # reference cycle, freed only by the cyclic garbage collector
        return _Events(self)

    @property
    def index(self) -> list:
        return [*range(1, self.max_m + 1), INF]

    def row(self, m):
        """The stored row holding entry m."""
        if m in self.rows:
            return m
        if isinstance(m, int) and self.stable_from <= m <= self.max_m:
            return INF
        raise KeyError(m)

    def rows_for(self, ms: range) -> list:
        """The stored rows holding the entries m in ``ms`` (within 1..max_m),
        each once."""
        below = list(range(ms.start, min(ms.stop, self.stable_from)))
        return below + [INF] if ms and ms[-1] >= self.stable_from else below

    def _tail_events(self) -> list:
        inf = self.rows[INF]
        detail = f"equals the m=inf entry (stable from m >= {self.dim})"
        events = []
        if inf.lo > 0:
            events.append(ProvenanceEvent("stabilize", "lo", inf.lo, detail))
        if inf.hi is not None:
            events.append(ProvenanceEvent("stabilize", "hi", inf.hi, detail))
        return events

    # -- narrowing -------------------------------------------------------
    # each walk stops at the first row that is already as tight: the entries
    # are monotone, so the rows past it are tighter still
    def raise_lo(self, m, value, rule, detail, certificate=None) -> bool:
        m = self.row(m)
        if value <= self.rows[m].lo:
            return False
        self._narrow(m, "lo", value, rule, detail, certificate)
        if m == INF:
            return True
        rows = self.rows
        for n in range(m + 1, self.stable_from):
            if value <= rows[n].lo:
                return True
            self._narrow(n, "lo", value, "monotone_m", f"at least the m={m} entry")
        if value > rows[INF].lo:
            self._narrow(INF, "lo", value, "classical_cap", f"dominates the m={m} entry")
        return True

    def lower_hi(self, m, value, rule, detail) -> bool:
        m = self.row(m)
        hi = self.rows[m].hi
        if value is None or (hi is not None and value >= hi):
            return False
        self._narrow(m, "hi", value, rule, detail)
        if m == INF:
            m, rule, detail = self.stable_from, "classical_cap", "at most the classical value"
        else:
            rule, detail = "monotone_m", f"at most the m={m} entry"
        rows = self.rows
        for n in range(m - 1, 0, -1):
            hi = rows[n].hi
            if hi is not None and value >= hi:
                break
            self._narrow(n, "hi", value, rule, detail)
        return True

    # -- the facts on this table alone, one fixpoint step -----------------
    @property
    def inputs(self) -> tuple:  # the tables ``apply`` reads
        return (self,)

    def apply(self) -> bool:
        """Narrow by the facts on this table alone, over the stored finite
        rows n; whether anything narrowed.  ``dim_recovery``: inf <= row n +
        floor(d/(n + 1)), raising each row n to inf less that shift first;
        ``skeletal_cap``: inf <= max(row d - 1, 2); ``pi_vanishing_eq``: inf
        = row k of ``pi_row``, raising row k first.  Text is made only for
        the rows that narrow."""
        rows, d, changed = self.rows, self.dim, False
        inf = rows[INF]
        finite = range(1, self.stable_from)
        if d is not None:
            for n in finite:
                if inf.lo - d // (n + 1) > rows[n].lo:
                    changed |= self.raise_lo(n, inf.lo - d // (n + 1), "dim_recovery",
                                             f"classical entry - floor({d}/{n + 1})")
            for n in finite:
                hi = rows[n].hi
                if hi is not None and (inf.hi is None or hi + d // (n + 1) < inf.hi):
                    changed |= self.lower_hi(INF, hi + d // (n + 1), "dim_recovery",
                                             f"m={n} entry + floor({d}/{n + 1})")
            if d - 1 in finite and rows[d - 1].hi is not None:
                changed |= self.lower_hi(INF, max(rows[d - 1].hi, 2), "skeletal_cap",
                                         f"max of the m={d - 1} entry and 2")
        if self.pi_row is not None and self.pi_row[0] in finite:
            k, detail = self.pi_row
            changed |= self.raise_lo(k, inf.lo, "pi_vanishing_eq", detail)
            changed |= self.lower_hi(INF, rows[k].hi, "pi_vanishing_eq", detail)
        return changed

    def _narrow(self, m, side, value, rule, detail, certificate=None) -> None:
        """Set one side of stored row m to ``value`` and log the event."""
        entry = self.rows[m]
        self.log[m].append(ProvenanceEvent(rule, side, value, detail, certificate))
        setattr(entry, side, value)
        self.narrowings += 1
        if entry.hi is not None and entry.lo > entry.hi:
            self._crossed(m)

    def _crossed(self, m):
        raise InconsistentModel(
            self.invariant, self.target, m,
            [e for e in self.log[m] if e.side == "lo"],
            [e for e in self.log[m] if e.side == "hi"],
        )

    # -- queries -----------------------------------------------------------
    def lo(self, m) -> int:
        return self.rows[self.row(m)].lo

    def hi(self, m) -> int | None:
        return self.rows[self.row(m)].hi

    def interval(self, m) -> Interval:
        return self.rows[self.row(m)]

    def key(self) -> tuple[str, str]:
        return (self.invariant, self.target)


class _Events(Mapping):
    """A table's provenance events at any m of its index; a tail row lists
    its ``stabilize`` events.  Iteration covers the stored rows only, so
    ``events.values()`` lists each narrowing that took place once."""

    def __init__(self, table: BoundTable):
        self._table = table

    def __getitem__(self, m):
        row = self._table.row(m)
        return self._table.log[row] if row == m else self._table._tail_events()

    def __iter__(self):
        return iter(self._table.log)

    def __len__(self) -> int:
        return len(self._table.log)


def _m_label(m) -> str:
    return "inf" if m == INF else str(m)


def _formatted(certificate, seen: dict) -> tuple:
    """A certificate's factor strings and product, formatted once per
    ``seen``: ``_capped_values`` shares one certificate between the rows of
    every cap where the cup length stays the same."""
    out = seen.get(id(certificate))
    if out is None:
        out = seen[id(certificate)] = (certificate.factor_strings(),
                                       certificate.product.format())
    return out


def render_text(table: BoundTable, ms=None, certificates=False) -> str:
    """Deterministic fixed-width text rendering of selected rows."""
    rows = ms if ms is not None else table.index
    events = table.events
    seen: dict = {}
    lines = [f"{table.invariant}[{table.target}]"]
    for m in rows:
        entry, row_events = table.interval(m), events[m]
        rules = []
        for ev in row_events:
            if ev.rule not in rules:
                rules.append(ev.rule)
        tag = ", ".join(rules) if rules else "-"
        lines.append(f"  m={_m_label(m):<4} {entry.format():<12} {tag}")
        if certificates:
            for ev in row_events:
                if ev.certificate is not None:
                    factors, product = _formatted(ev.certificate, seen)
                    factors = " * ".join(f"({s})" for s in factors)
                    lines.append(f"      witness: {factors} = {product}")
    return "\n".join(lines) + "\n"


def table_to_json(table: BoundTable, ms=None) -> dict:
    """The JSON form of selected rows.  Each event gets its own dicts and
    lists, so the result shares no mutable object."""
    rows = ms if ms is not None else table.index
    events = table.events
    seen: dict = {}
    entries = []
    for m in rows:
        entry = table.interval(m)
        provenance = []
        for ev in events[m]:
            out = {"rule": ev.rule, "side": ev.side, "value": ev.value, "detail": ev.detail}
            if ev.certificate is not None:
                factors, product = _formatted(ev.certificate, seen)
                out["certificate"] = {"factors": list(factors), "product": product}
            provenance.append(out)
        entries.append(
            {
                "m": _m_label(m),
                "lo": entry.lo,
                "hi": entry.hi,
                "exact": entry.is_exact(),
                "provenance": provenance,
            }
        )
    return {
        "invariant": table.invariant,
        "target": table.target,
        "max_m": table.max_m,
        "entries": entries,
    }


def _json_leaf(value) -> str:
    """The JSON text of a scalar or of an empty dict or list."""
    if isinstance(value, str):
        return _escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (dict, list)) and not value:
        return "{}" if isinstance(value, dict) else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_json(obj, write) -> None:
    """Pass the text of ``json.dumps(obj, indent=2, sort_keys=True)`` to
    ``write`` in pieces, for dicts with str keys, lists, str, int, bool and
    None; anything else, a non-str key included, raises ``TypeError``.
    With ``indent`` set, ``json.dumps`` takes its pure-Python encoder; here
    keys and strings go through the C ``encode_basestring_ascii`` and each
    leaf is written in one piece with its key."""
    _write_json(obj, write, "")


def _write_json(obj, write, indent: str) -> None:
    """``write_json`` of ``obj`` on a line indented by ``indent``."""
    if isinstance(obj, dict) and obj:
        keys, start, close = sorted(obj), "{\n", "}"
    elif isinstance(obj, list) and obj:
        keys, start, close = None, "[\n", "]"
    else:
        write(_json_leaf(obj))
        return
    inner = indent + "  "
    sep = start + inner
    for item in keys or obj:
        if keys:  # _escape raises TypeError on a key that is not a str
            head, value = sep + _escape(item) + ": ", obj[item]
        else:
            head, value = sep, item
        if isinstance(value, (dict, list)) and value:
            write(head)
            _write_json(value, write, inner)
        else:
            write(head + _json_leaf(value))
        sep = ",\n" + inner
    write("\n" + indent + close)


def table_from_json(data: dict) -> BoundTable:
    """Rebuild a table from its JSON form (provenance becomes opaque events)."""
    table = BoundTable(data["invariant"], data["target"], data["max_m"])
    for row in data["entries"]:
        m = INF if row["m"] == "inf" else int(row["m"])
        table.rows[m] = Interval(row["lo"], row["hi"])
        table.log[m] = [
            ProvenanceEvent(
                ev["rule"], ev["side"], ev["value"], ev["detail"],
                _OpaqueCertificate(ev["certificate"]) if "certificate" in ev else None,
            )
            for ev in row["provenance"]
        ]
    return table


class _OpaqueCertificate:
    """Round-trip stand-in for certificates parsed back from JSON."""

    def __init__(self, data: dict):
        self._factors = list(data["factors"])
        self._product = data["product"]

    def factor_strings(self):
        return list(self._factors)

    @property
    def product(self):
        class _P:
            def __init__(self, s):
                self._s = s

            def format(self):
                return self._s

        return _P(self._product)
