"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` replaces each layer's public function at the name its
caller looks up: the engine imports ``capped_cuplength``, ``tensor_square``
and ``kernel`` by name, the command line imports ``compute_tables``,
``load_model_file``, ``render_text``, ``table_to_json`` and ``run_suite``,
the cup-length DP and the linear algebra call ``make_echelon`` and then
``.insert`` on what it returns, and methods (``mul_vectors``, ``validate``,
``raise_lo``, ``lower_hi``) are looked up on their class.  ``uninstall``
puts every original back.

Spans (name, start, end, parent, case) stay in memory until the run ends.
Functions called too often for a span (``mul_vectors``, echelon inserts)
only bump counters.  Narrowings that took effect are counted from the
provenance events of the tables ``compute_tables`` returns (each appends
exactly one event); calls to ``raise_lo``/``lower_hi`` are counted only when
``count_narrow_calls`` is set.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

# span name of each wrapped function, by (module, attribute)
SPANNED = [
    ("secatm.engine", "capped_cuplength", "cuplength.capped"),
    ("secatm.engine", "tensor_square", "algebra.tensor_square"),
    ("secatm.engine", "kernel", "algebra.kernel"),
    ("secatm.engine", "compute_tables", "engine.compute_tables"),
    ("secatm.cli", "compute_tables", "engine.compute_tables"),
    ("secatm.goldens", "compute_tables", "engine.compute_tables"),
    ("secatm.cli", "load_model_file", "modelfile.load"),
    ("secatm.cli", "render_text", "tables.render"),
    ("secatm.cli", "table_to_json", "tables.render"),
    ("secatm.cli", "run_suite", "goldens.run_suite"),
    ("secatm.cli", "main", "cli.main"),
]
SPANNED_METHODS = [
    ("secatm.algebra", "GradedAlgebra", "validate", "algebra.validate"),
    ("secatm.algebra", "RingMorphism", "validate", "algebra.validate"),
]
ECHELON_FACTORIES = ["secatm.linalg", "secatm.algebra", "secatm.cuplength"]


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules  # name -> imported module
        self.spans: list[list] = []  # [id, name, start, end, parent, case]
        self.counts: Counter = Counter()
        self.case = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        # per compute_tables call: generator subspaces seen by the DP, kept
        # alive so their ids stay unique -> highest degree
        self._groups: dict = {}
        # counting narrowing calls costs a third of a wide pass, so it is
        # only switched on for a pass whose times are not used
        self.count_narrow_calls = False

    # -- spans ---------------------------------------------------------------
    def _spanned(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), name, 0.0, 0.0, stack[-1] if stack else None, self.case]
            spans.append(rec)
            stack.append(rec[0])
            rec[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _on_cuplength(self, args, kwargs, result):
        query = args[0] if args else kwargs["query"]
        self.counts["cuplength.calls"] += 1
        gens = query.generators
        self._groups.setdefault(id(gens), (gens, max(gens.degrees())))

    def _on_compute(self, args, kwargs, tables):
        engine = self.modules["secatm.engine"]
        bundle = args[0] if args else kwargs["bundle"]
        max_m = kwargs.get("max_m", args[1] if len(args) > 1 else None)
        if max_m is None:
            max_m = engine.default_max_m(bundle)
        targets = kwargs.get("targets", args[3] if len(args) > 3 else None)
        for _, degmax in self._groups.values():
            self.counts["cuplength.distinct_caps"] += len(
                {min(m, degmax) for m in range(1, max_m + 1)} | {degmax})
        self._groups.clear()
        self.counts["engine.lower_tables"] += sum(
            1 for t in tables.values() if t.lower_bounds_applied)
        for table in tables.values():
            for events in table.events.values():
                for ev in events:
                    self.counts["tables.narrowed." + ev.rule] += 1
                self.counts["tables.narrowed"] += len(events)
        self.counts["engine.targeted_tables"] += (
            len(tables) if targets is None else len(targets))

    # -- counters --------------------------------------------------------------
    def _counted_mul(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def mul_vectors(*args, **kwargs):
            counts["algebra.mul_vectors_calls"] += 1
            return fn(*args, **kwargs)

        return mul_vectors

    def _counted_echelon(self, factory):
        counts = self.counts

        @functools.wraps(factory)
        def make_echelon(*args, **kwargs):
            ech = factory(*args, **kwargs)
            insert = ech.insert

            def counted_insert(v):
                grew = insert(v)
                counts["linalg.echelon_inserts"] += 1
                counts["linalg.echelon_rank_grew"] += bool(grew)
                return grew

            ech.insert = counted_insert
            return ech

        return make_echelon

    def _counted_narrow(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def narrow(*args, **kwargs):
            counts["tables.narrow_calls"] += 1
            return fn(*args, **kwargs)

        return narrow

    # -- patching ----------------------------------------------------------------
    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = self.modules
        hooks = {"cuplength.capped": self._on_cuplength,
                 "engine.compute_tables": self._on_compute}
        for mod, attr, name in SPANNED:
            owner = mods[mod]
            self._patch(owner, attr, self._spanned(name, getattr(owner, attr),
                                                   hooks.get(name)))
        for mod, cls, attr, name in SPANNED_METHODS:
            owner = getattr(mods[mod], cls)
            self._patch(owner, attr, self._spanned(name, getattr(owner, attr)))
        algebra, tables = mods["secatm.algebra"], mods["secatm.tables"]
        self._patch(algebra.GradedAlgebra, "mul_vectors",
                    self._counted_mul(algebra.GradedAlgebra.mul_vectors))
        for mod in ECHELON_FACTORIES:
            self._patch(mods[mod], "make_echelon",
                        self._counted_echelon(mods[mod].make_echelon))
        if self.count_narrow_calls:
            for attr in ("raise_lo", "lower_hi"):
                self._patch(tables.BoundTable, attr,
                            self._counted_narrow(getattr(tables.BoundTable, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- case spans ----------------------------------------------------------------
    def begin_case(self, case_id: str) -> list:
        """Open the root span of a case; its duration is the case wall time."""
        self.case = case_id
        rec = [len(self.spans), "case", 0.0, 0.0, None, case_id]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[2] = time.perf_counter()
        return rec

    def end_case(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()
        self.case = None

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._groups.clear()


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            own[s[4]] -= s[3] - s[2]
    return own


def span_errors(spans) -> tuple[list[str], dict[str, float]]:
    """Problems with the span tree, and the sum of the self times of each
    case's spans (which should equal the case's wall time)."""
    by_id = {s[0]: s for s in spans}
    own = self_times(spans)
    errors = []
    per_case: dict[str, float] = {}
    for s in spans:
        if s[3] < s[2]:
            errors.append(f"span {s[0]} {s[1]} ends before it starts")
        if s[4] is None and s[1] != "case":
            errors.append(f"span {s[0]} {s[1]} has no case")
        if s[4] is not None:
            parent = by_id[s[4]]
            if s[2] < parent[2] or s[3] > parent[3] or s[5] != parent[5]:
                errors.append(f"span {s[0]} {s[1]} is not inside its parent")
        per_case[s[5]] = per_case.get(s[5], 0.0) + own[s[0]]
    return errors, per_case


def layer_times(spans) -> dict[str, dict[str, float]]:
    """Span name -> {"total": inclusive seconds, "self": self seconds}.
    Inclusive time counts only outermost spans of a name, so recursion (a
    validate inside a validate) is not counted twice."""
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s[1], {"total": 0.0, "self": 0.0})
        row["self"] += own[s[0]]
        p = s[4]
        nested = False
        while p is not None:
            if by_id[p][1] == s[1]:
                nested = True
                break
            p = by_id[p][4]
        if not nested:
            row["total"] += s[3] - s[2]
    return out
