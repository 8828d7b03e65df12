"""Bound tables for cat, tc, secat, dm and hdm over m = 1..M plus the
classical column, produced by exact cup-length lower bounds and a narrowing
rule system iterated to a fixpoint.

Every rule is a record in one table built per run, and every record states
one inequality: a target table is at most its source tables at shared index
pairs.  Applying it lowers the target's upper ends and, for an inequality
between two single entries, raises the source's lower ends too; an equality
is two records, one each way.  Two facts are no records but kept by the
tables themselves (see :mod:`secatm.tables`): monotonicity in m with the
cap by the classical value, as each narrowing carries on to the rows it
implies, and stabilization, as the m-dimensional invariants equal the
classical ones from m = hdim on (twice hdim for tc; Schwarz) and a table
stores rows only below that m.  Each record's index pairs are resolved
once against the stored rows.  Every rule only narrows intervals, so
iteration terminates, and the intervals it ends with do not depend on the
order of the records or on when the tables apply their own facts (chaotic
iteration; Cousot 1977); a crossing pair of bounds raises
:class:`~secatm.tables.InconsistentModel` with both provenance chains.  A
sweep re-applies a record only when a table it reads has narrowed since its
last application (semi-naive evaluation), which changes no event and no
order of events.
Lower bounds come from capped cup-lengths over spans of ideal generators:
for cat, the algebra generators of H^+ (the basis classes that complement
the decomposables); for tc, a (x) 1 - 1 (x) a over those generators, which
generate the ideal of zero divisors in the tensor square (field
coefficients only); for secat, the pullback kernel; for dm and hdm,
(f* - g*) of the codomain's generators in the domain.  The cat and tc
sources are written straight in canonical echelon form and stored without
an echelon; the others are echeloned.  At every cap an
ideal and a generating set of it have the same capped cup-length, so the
bounds are those of the whole ideals.  One DP per source serves all its
caps: it adds the generators in degree order and reads each cap off its
prefix (``capped_cuplength``).  The bounds carry their certificates in the
provenance, and are applied lazily: only to the requested tables and to
tables whose lower bounds reach them through a rule record.  The engine
keeps no per-algebra data of its own: each algebra ranks its generators
(``GradedAlgebra.generators``) and converts its integer structure
constants (``GradedAlgebra.constants``) on first read and keeps them, so
a second run on the same models ranks and converts nothing.  Validation
reads both, so the algebras a model file declares come to their first run
with them built.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import Subspace, kernel, tensor_square
from .cuplength import CupLengthQuery, capped_cuplength
from .linalg import vis_zero, vsub, vunit
from .spaces import FibrationModel, MapPairModel, SpaceModel
from .tables import INF, BoundTable

__all__ = [
    "Bundle",
    "KIND_OF",
    "compute_tables",
    "default_max_m",
]


class Bundle:
    """Named spaces, fibrations and map pairs sharing one computation."""

    def __init__(self):
        self.spaces: dict[str, SpaceModel] = {}
        self.fibrations: dict[str, FibrationModel] = {}
        self.map_pairs: dict[str, MapPairModel] = {}

    def add_space(self, name: str, model: SpaceModel) -> SpaceModel:
        self._check_fresh(name)
        self.spaces[name] = model
        return model

    def add_fibration(self, name: str, model: FibrationModel) -> FibrationModel:
        self._check_fresh(name)
        self.fibrations[name] = model
        return model

    def add_map_pair(self, name: str, model: MapPairModel) -> MapPairModel:
        self._check_fresh(name)
        self.map_pairs[name] = model
        return model

    def _check_fresh(self, name: str) -> None:
        if name in self.spaces or name in self.fibrations or name in self.map_pairs:
            raise ValueError(f"duplicate model name {name!r}")


def default_max_m(bundle: Bundle) -> int | None:
    """Largest m before every table stabilizes: the largest dimension
    parameter of the bundle's tables, at least 1; None when no table has
    one."""
    params = [_dim_param(inv, model) for kind, invariants in _INVARIANTS.items()
              for model in getattr(bundle, kind).values() for inv in invariants]
    params = [d for d in params if d is not None]
    return max(max(params), 1) if params else None


def compute_tables(bundle, max_m=None, use_literature=True, targets=None):
    """Compute all bound tables of a bundle.

    Derived models (product factors, squares, fibration bases, triangle
    legs) get tables under derived names; the bundle itself is left
    unchanged.  ``targets`` optionally limits cup-length lower-bound
    evaluation to the named ``(invariant, name)`` tables (plus everything
    whose lower bounds can reach them); upper bounds are always complete,
    so unlisted tables stay sound but may be wider than a full run would
    make them.
    """
    return _Engine(bundle, max_m, use_literature, targets).run()


# ---------------------------------------------------------------------------
# rule records
# ---------------------------------------------------------------------------

# Index pairs (m, n, shift) by kind: the target entry m is bounded above by
# the source entry n, offset by shift.  Finite m run up to ``last`` only: the
# engine passes the last m that is not the inf entry in every table of the
# record, and every pair beyond it reads and writes inf entries only.  A
# record that also raises lower ends reads the same pairs the other way, the
# source entry n bounded below by the target entry m.
_PAIRS = {
    "same": lambda last, M, d: [(m, m, 0) for m in range(1, last + 1)] + [(INF, INF, 0)],
    "recover": lambda last, M, d: [(INF, m, d // (m + 1)) for m in range(1, last + 1)],
    "skeleton": lambda last, M, d: [(INF, d - 1, 0)] if 1 <= d - 1 <= M else [],
    "stable": lambda last, M, d: [(m, INF, 0) for m in range(max(d, 1), last + 1)],
}


def _text(detail, m, n) -> str:
    return detail if isinstance(detail, str) else detail(m, n)


class _Bound(NamedTuple):
    """One inequality, ``target[m] <= max(scale * sum(source[n]) + shift,
    floor)`` at each index pair (target row, one row per source, shift),
    over stored rows.  Applying it lowers ``target[m].hi``.  A record with a
    ``lo_detail`` (one source, scale 1, no floor) first raises
    ``source[n].lo`` to ``target[m].lo - shift``, over all pairs, and then
    lowers the upper ends.  ``detail`` and ``lo_detail`` are provenance text,
    or ``(m, n) -> text`` of the pair's target and source row."""

    rule: str
    target: BoundTable
    sources: tuple
    pairs: list
    detail: object
    lo_detail: object = None
    scale: int = 1
    floor: int = 0

    @property
    def inputs(self) -> tuple:
        """The tables the record reads, each once."""
        if self.lo_detail is None or self.target in self.sources:
            return self.sources
        return (*self.sources, self.target)

    def apply(self) -> bool:
        raised = self.lo_detail is not None and self._raise()
        return self._lower() | raised

    def _raise(self) -> bool:
        source = self.sources[0]
        rows, target = source.rows, self.target.rows
        changed = False
        for m, (n,), shift in self.pairs:
            value = target[m].lo - shift
            if value > rows[n].lo:
                changed |= source.raise_lo(n, value, self.rule, _text(self.lo_detail, m, n))
        return changed

    def _lower(self) -> bool:
        target, scale, floor = self.target, self.scale, self.floor
        rows = target.rows
        first, *rest = [s.rows for s in self.sources]
        changed = False
        for m, ns, shift in self.pairs:
            hi = first[ns[0]].hi
            if rest and hi is not None:  # product and triangle sums only
                parts = [other[n].hi for other, n in zip(rest, ns[1:])]
                hi = None if None in parts else hi + sum(parts)
            if hi is None:
                continue
            value = scale * hi + shift
            if value < floor:
                value = floor
            current = rows[m].hi
            if current is None or value < current:
                changed |= target.lower_hi(m, value, self.rule, _text(self.detail, m, ns[0]))
        return changed


def _fixpoint(rules) -> None:
    """Sweep the records in order until a sweep narrows nothing, skipping a
    record while no table it reads (``inputs``) has narrowed since its last
    application (semi-naive evaluation).  Skipping is exact: an application
    leaves every pair of its record satisfied unless it narrowed an input,
    and narrowing its target further cannot unsatisfy a pair.  The counts
    are taken before the application, so a record that narrows its own
    input (``dim_recovery`` reads the rows it raises) runs again; they only
    grow, so their sum tells whether any of them moved."""
    inputs = [rule.inputs for rule in rules]
    seen = [-1] * len(rules)
    changed = True
    while changed:
        changed = False
        for i, rule in enumerate(rules):
            ins = inputs[i]  # most records read one table
            count = ins[0].narrowings if len(ins) == 1 else sum([t.narrowings for t in ins])
            if count != seen[i]:
                seen[i] = count
                changed |= rule.apply()


# ---------------------------------------------------------------------------


# the tables each kind of model gets, in table order
_INVARIANTS = {"spaces": ("cat", "tc"), "fibrations": ("secat",),
               "map_pairs": ("dm", "hdm")}
_KINDS = tuple(_INVARIANTS)
# the Bundle registry holding the models of each invariant
KIND_OF = {inv: kind for kind, invs in _INVARIANTS.items() for inv in invs}
# the model field holding each invariant's recorded classical value
_KNOWN = {"cat": "known_cat", "tc": "known_tc", "secat": "known_secat", "dm": "known_d"}


def _dim_param(inv, model):
    """The m from which ``inv`` of ``model`` stabilizes: hdim of the space,
    fibration base or pair domain, twice it for tc; None for hdm or an
    unknown hdim."""
    if inv == "hdm":
        return None
    if inv == "secat":
        return model.base.hdim
    if inv == "dm":
        return model.domain.hdim
    return model.hdim if inv == "cat" or model.hdim is None else 2 * model.hdim


class _Engine:
    def __init__(self, bundle, max_m, use_literature, targets):
        # derived models are named in a copy, never in the caller's bundle
        self.bundle = Bundle()
        for kind in _KINDS:
            getattr(self.bundle, kind).update(getattr(bundle, kind))
        self.use_literature = use_literature
        self.requested = set(targets) if targets is not None else None
        self.names: dict[int, str] = {}  # id(model) -> its name
        self.tables: dict[tuple[str, str], BoundTable] = {}
        self.max_m = max_m
        self._pair_cache: dict = {}

    # -- registration -------------------------------------------------------
    def _register(self):
        """Name every model the bundle's models refer to, depth first, under
        a derived name such as ``p.factor1`` (``~2`` and up on clashes)."""
        b = self.bundle
        taken = {name for kind in _KINDS for name in getattr(b, kind)}
        for kind in _KINDS:
            for name, model in getattr(b, kind).items():
                self.names[id(model)] = name
        for kind in _KINDS:
            for name, model in list(getattr(b, kind).items()):
                # one (name, remaining children) frame per model on the path
                stack = [(name, iter(_children(model)))]
                while stack:
                    parent, children = stack[-1]
                    step = next(children, None)
                    if step is None:
                        stack.pop()
                        continue
                    child_kind, suffix, child = step
                    if id(child) in self.names:
                        continue
                    hint = child_name = f"{parent}.{suffix}"
                    k = 2
                    while child_name in taken:
                        child_name = f"{hint}~{k}"
                        k += 1
                    taken.add(child_name)
                    getattr(b, child_kind)[child_name] = child
                    self.names[id(child)] = child_name
                    stack.append((child_name, iter(_children(child))))

    # -- helpers -------------------------------------------------------------
    def t(self, inv, name) -> BoundTable:
        return self.tables[(inv, name)]

    def name_of(self, model) -> str:
        return self.names[id(model)]

    def model(self, inv, name):
        return getattr(self.bundle, KIND_OF[inv])[name]

    # -- main ----------------------------------------------------------------
    def run(self):
        self._register()
        if self.max_m is None:
            self.max_m = default_max_m(self.bundle)
        if self.max_m is None:
            raise ValueError("no model has a known hdim; pass max_m explicitly")
        if self.max_m < 1:
            raise ValueError(f"max_m must be >= 1, got {self.max_m}")
        for kind, invariants in _INVARIANTS.items():
            for name, model in getattr(self.bundle, kind).items():
                for inv in invariants:
                    self.tables[(inv, name)] = BoundTable(
                        inv, name, self.max_m, _dim_param(inv, model))

        self.rules = self._rules()
        self._apply_static()
        self._apply_lower_bounds()

        # sweep until quiet, skipping records whose inputs did not narrow
        _fixpoint(self.rules)
        return self.tables

    # -- static narrowing (metadata and literature axioms) --------------------
    def _apply_static(self):
        for (inv, name), table in self.tables.items():
            known = _KNOWN.get(inv)
            value = getattr(self.model(inv, name), known) if known else None
            if self.use_literature and value is not None:
                for narrow in (table.raise_lo, table.lower_hi):
                    narrow(INF, value, "literature", f"recorded classical value {value}")
        for name, s in self.bundle.spaces.items():
            cat = self.t("cat", name)
            for m in cat.rows_for(range(1, min(s.conn, self.max_m) + 1)):
                cat.lower_hi(
                    m, 0, "conn_vanishing", f"{s.conn}-connected forces 0 at m <= {s.conn}")
        for name, p in self.bundle.map_pairs.items():
            dm = self.t("dm", name)
            if p.homotopic:
                for m in dm.stored:
                    dm.lower_hi(m, 0, "homotopic_zero",
                                "the two maps are declared homotopic")
            # dimension-connectivity cap, active where the codomain's higher
            # homotopy vanishes
            d0 = p.codomain.pi_vanish_from
            hx = p.domain.hdim
            cy = p.codomain.conn
            if d0 is not None and hx is not None:
                bound = -(-(hx + 1) // (cy + 1)) - 1  # strict rational bound
                for m in dm.rows_for(range(max(d0 - 1, 1), self.max_m + 1)):
                    dm.lower_hi(m, bound, "dim_conn_cap",
                                f"< (hdim {hx}+1)/(conn {cy}+1)")

    # -- cup-length lower bounds ----------------------------------------------
    def _lower_targets(self):
        """Tables that need cup-length lower bounds: the requested ones plus
        every table whose lower bounds reach them.  Lower bounds flow only
        through records with a ``lo_detail``, from the record's target to
        its source."""
        feeds: dict = {}  # table key -> keys whose lower bounds flow into it
        for rule in self.rules:
            if rule.lo_detail is not None:
                feeds.setdefault(rule.sources[0].key(), []).append(rule.target.key())
        seen = set()
        todo = list(self.tables if self.requested is None else self.requested)
        while todo:
            key = todo.pop()
            if key in self.tables and key not in seen:
                seen.add(key)
                todo.extend(feeds.get(key, ()))
        return seen

    def _apply_lower_bounds(self):
        # dm reads hdm's source, so a pair's two tables share its source and
        # its cup-length values
        sources, runs = {}, {}
        for inv, name in sorted(self._lower_targets()):
            table = self.tables[(inv, name)]
            key = ("hdm" if inv == "dm" else inv, name)
            if key not in sources:
                sources[key] = _lower_source(inv, self.model(inv, name))
            source = sources[key]
            table.lower_bounds_applied = True
            if source is None or source[1].is_zero():
                continue
            algebra, generators, what = source
            degmax = max(generators.degrees())
            if key not in runs:
                runs[key] = self._capped_values(algebra, generators, degmax)
            values = runs[key]
            # from inf down, so that each row's own bound comes before the
            # bounds of the rows below it reach it
            for m in reversed(table.stored):
                eff = degmax if m == INF else min(m, degmax)
                length, cert = values[eff]
                if length > 0:
                    table.raise_lo(
                        m, length, "cup_length",
                        f"{length} classes of degree <= {eff} from {what} "
                        f"with nonzero product",
                        certificate=cert,
                    )

    def _capped_values(self, algebra, generators, degmax):
        """cap -> (length, certificate) for the caps of m = 1..max_m and
        inf: min(m, degmax) and degmax.  Every table the values serve
        stabilizes at or past degmax, its dimension parameter being at
        least the top degree, so it reads no other cap.  One DP reads every
        cap off its prefix of the generators in degree order, and caps of
        equal length share the certificate of the lowest of them."""
        caps = {*range(1, min(self.max_m, degmax) + 1), degmax}
        return capped_cuplength(CupLengthQuery(algebra, generators), caps)

    # -- the rule table ----------------------------------------------------------
    def _pairs(self, kind, dim, target, sources):
        """The index pairs of one record resolved against the stored rows of
        its tables: (target row, source rows, shift), without duplicates and
        without pairs that bound an entry by itself.  Records whose tables
        stabilize alike share one list, built on the first of them: a
        record on one table is keyed by that table's ``stable_from`` alone,
        a shorter key than any other record's."""
        itself = sources == (target,)
        key = ((kind, dim, target.stable_from) if itself else
               (kind, dim, target.stable_from, *[s.stable_from for s in sources]))
        pairs = self._pair_cache.get(key)
        if pairs is None:
            last = max([t.stable_from for t in (target, *sources)])
            raw = _PAIRS[kind](min(self.max_m, last), self.max_m, dim)
            # an index with no stored row of its own is the inf entry
            columns = [[n if n in s.rows else INF for _, n, _ in raw] for s in sources]
            found, rows_of = {}, target.rows
            for (m, _, shift), rows in zip(raw, zip(*columns)):
                row = m if m in rows_of else INF
                if shift or not itself or rows[0] != row:
                    found[row, rows, shift] = None
            pairs = self._pair_cache[key] = list(found)
        return pairs

    def _rules(self):
        """Every narrowing rule of the fixpoint as a record, in sweep order."""
        b, t, name_of = self.bundle, self.t, self.name_of
        rules = []

        def add(record):
            if record.pairs:  # a record with no pair left can never narrow
                rules.append(record)

        def le(rule, target, sources, detail, kind="same", dim=None, scale=1, floor=0,
               lo_detail=None):
            sources = tuple(sources)
            pairs = self._pairs(kind, dim, target, sources)
            add(_Bound(rule, target, sources, pairs, detail, lo_detail, scale, floor))

        def eq(rule, a, b_, detail, kind="same", dim=None):
            # a <= b and b <= a, the second over the first's pairs reversed
            pairs = self._pairs(kind, dim, a, (b_,))
            add(_Bound(rule, a, (b_,), pairs, detail, detail))
            add(_Bound(rule, b_, (a,), [(n, (m,), 0) for m, (n,), _ in pairs], detail, detail))

        for name, f in b.fibrations.items():
            s, c = t("secat", name), t("cat", name_of(f.base))
            le("secat_le_cat_base", s, [c], f"at most cat[{c.target}]",
               lo_detail=f"at least secat[{name}]")
            if f.total_contractible:
                eq("secat_eq_cat_contractible", s, c, "contractible total space")
        dims = [(tab, tab.dim) for tab in self.tables.values() if tab.dim is not None]
        for tab, dim in dims:
            le("dim_recovery", tab, [tab],
               lambda m, n, d=dim: f"m={n} entry + floor({d}/{n + 1})", "recover", dim,
               lo_detail=lambda m, n, d=dim: f"classical entry - floor({d}/{n + 1})")
        for tab, dim in dims:
            le("skeletal_cap", tab, [tab], lambda m, n: f"max of the m={n} entry and 2",
               "skeleton", dim, floor=2)

        # (table, first degree of vanishing homotopy, whose, first m = d0 - lag)
        vanishing = [(t(inv, n), s.pi_vanish_from, "", 1)
                     for n, s in b.spaces.items() for inv in ("cat", "tc")]
        vanishing += [(t("dm", n), p.codomain.pi_vanish_from, "codomain ", 1)
                      for n, p in b.map_pairs.items()]
        vanishing += [(t("secat", n), f.fiber_pi_vanish_from, "fiber ", 0)
                      for n, f in b.fibrations.items()]
        for tab, d0, whose, lag in vanishing:
            if d0 is not None:
                eq("pi_vanishing_eq", tab, tab,
                   f"{whose}homotopy vanishes from degree {d0}", "stable", d0 - lag)

        products = [(inv, n, s.factors) for n, s in b.spaces.items() for inv in ("cat", "tc")]
        products += [("secat", n, f.factors) for n, f in b.fibrations.items()]
        for inv, name, factors in products:
            if factors:
                fnames = [name_of(x) for x in factors]
                le("product_subadd", t(inv, name), [t(inv, fn) for fn in fnames],
                   f"sum over factors {fnames}")

        for name, p in b.map_pairs.items():
            dm = t("dm", name)
            cdom, tcod = t("cat", name_of(p.domain)), t("tc", name_of(p.codomain))
            le("dm_le_cat_domain", dm, [cdom], f"at most cat[{cdom.target}]")
            le("dm_le_tc_codomain", dm, [tcod], f"at most tc[{tcod.target}]")
        for name in b.map_pairs:
            dm, hdm = t("dm", name), t("hdm", name)
            le("hdm_le_dm", hdm, [dm], "at most the homotopic distance",
               lo_detail="at least the cohomological distance")
        for name, p in b.map_pairs.items():
            if p.triangle is not None:
                dl, dr = (t("dm", name_of(x)) for x in p.triangle)
                le("triangle", t("dm", name), [dl, dr],
                   f"through {dl.target} and {dr.target}")

        for name in b.spaces:
            cat, tc = t("cat", name), t("tc", name)
            le("cat_le_tc", cat, [tc], "at most tc", lo_detail="at least cat")
        for name, s in b.spaces.items():
            cat, tc = t("cat", name), t("tc", name)
            le("tc_le_2cat", tc, [cat], "at most twice cat", scale=2)
            if s.square is not None:
                csq = t("cat", name_of(s.square))
                le("tc_le_cat_square", tc, [csq], f"at most cat[{csq.target}]")
        for name, s in b.spaces.items():
            if s.h_space_with_division:
                eq("h_space_eq", t("tc", name), t("cat", name), "H-space with division")

        for name, p in b.map_pairs.items():
            aug_g, aug_f = p.gstar.is_augmentation(), p.fstar.is_augmentation()
            if not (aug_g or aug_f):
                continue
            other = p.fstar if aug_g else p.gstar
            dm = t("dm", name)
            cdom, ccod = t("cat", name_of(p.domain)), t("cat", name_of(p.codomain))
            if other.is_identity():
                eq("const_vs_identity", dm, cdom,
                   "distance to a constant map equals cat")
            else:  # dm <= cat[domain] is dm_le_cat_domain
                le("const_pair_cap", dm, [ccod], f"at most cat[{ccod.target}]")
        return rules


def _children(model) -> list:
    """(kind, name suffix, model) for each model that ``model`` refers to."""
    if isinstance(model, SpaceModel):
        square = [("spaces", "square", model.square)] if model.square is not None else []
        return [("spaces", f"factor{i}", f)
                for i, f in enumerate(model.factors or (), 1)] + square
    if isinstance(model, FibrationModel):
        return [("spaces", "base", model.base)] + [
            ("fibrations", f"factor{i}", f) for i, f in enumerate(model.factors or (), 1)]
    legs = zip(("left", "right"), model.triangle or ())
    return [("spaces", "domain", model.domain), ("spaces", "codomain", model.codomain)] + [
        ("map_pairs", side, leg) for side, leg in legs]


def _lower_source(inv, model):
    """(algebra, generator subspace, description) feeding the cup-length
    lower bound of ``inv`` on ``model``, or None when it does not apply.

    Each source spans a set of generators of an ideal, from the algebra
    generators g of ``GradedAlgebra.generators``, which each algebra ranks
    once and keeps.  cat reads the g themselves, which generate H^+.  tc
    reads ``g (x) 1 - 1 (x) g`` in the tensor square, which generate the
    kernel of the cup product (Farber 2003), over a field only.  Both are
    written in canonical echelon form and stored without an echelon: the
    unit rows of the g, sorted by (degree, index), are their own RREF, and
    so are the rows ``1 (x) g - g (x) 1``, whose pivot is the slot of
    ``1 (x) g`` (the left-degree-0 block comes first in each degree) and
    whose other entry lies in the left-degree-d block, which holds no
    pivot.  dm and hdm read
    ``(f* - g*)(g)`` for the pair's f* and g*, with g running over the
    codomain's generators, which generate the ideal of im(f* - g*), as
    ``(f* - g*)(ab) = (f*a - g*a) f*b + g*a (f*b - g*b)``; dm's pushed zero
    divisors ``(f*a - g*a) g*b`` lie in that ideal too.  A product of k
    ideal elements of degree <= cap expands into terms that each hold a
    product of k generators of degree <= cap, so at every cap the spans
    have the cup-length of their ideals.  The dm and secat rows can be
    dependent, so they are echeloned."""
    if inv == "secat":
        return model.base.algebra, kernel(model.pstar), "ker(pullback)"
    rows = {}
    if inv == "cat":
        A = model.algebra
        for d, i in A.generators:
            rows.setdefault(d, []).append(vunit(A.coeff, A.dim(d), i))
        return A, Subspace._of_canonical(A, rows), "H^+"
    if inv == "tc":
        A = model.algebra
        if not A.coeff.is_field:
            return None
        X, dom = tensor_square(A)[0], A.coeff
        zero, one, minus_one = dom.zero(), dom.one(), dom.neg(dom.one())
        for d, i in A.generators:
            row = [zero] * X.dim(d)
            row[X.slot(0, 0, d, i)] = one
            row[X.slot(d, i, 0, 0)] = minus_one
            rows.setdefault(d, []).append(tuple(row))
        return X, Subspace._of_canonical(X, rows), "ker(cup)"
    f, g, X = model.fstar, model.gstar, model.domain.algebra
    for d, i in f.source.generators:
        diff = vsub(X.coeff, f.mats[d][i], g.mats[d][i])
        if not vis_zero(diff):
            rows.setdefault(d, []).append(diff)
    return X, Subspace(X, rows), "im(f* - g*)"
