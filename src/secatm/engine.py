"""Bound tables for cat, tc, secat, dm and hdm over m = 1..M plus the
classical column, produced by exact cup-length lower bounds and a narrowing
rule system iterated to a fixpoint.

Every rule between tables is a record in one table built per run, and every
record states one inequality: a target table is at most its source tables
at shared index pairs.  Applying it lowers the target's upper ends and, for
an inequality between two single entries, raises the source's lower ends
too; an equality is two records, one each way, or one where the other way
is a rule of its own.  The facts on one table are kept by the tables
themselves (see :mod:`secatm.tables`): monotonicity in m with the cap by
the classical value, as each narrowing carries on to the rows it implies;
stabilization, as the m-dimensional invariants equal the classical ones
from m = hdim on (twice hdim for tc; Schwarz) and a table stores rows only
below that m; and dimension recovery, the skeletal cap and the
homotopy-vanishing equality, one step per table (``BoundTable.apply``)
swept after the fibration records.  The facts a model fixes on its own
(connectivity, a declared homotopy, the dimension-connectivity cap and a
recorded classical value) narrow each table as it is made, in the one walk
of the models that makes the tables (``_Engine._table``).  Each record's
index pairs are resolved once against the stored rows, without those the
tables imply: one pair per stored finite row of its target, and one for
the target's inf row (``_pairs``).
Every rule only narrows intervals, so iteration terminates, and the
intervals it ends with do not depend on the order of the rules (chaotic
iteration; Cousot 1977); a crossing pair of bounds raises
:class:`~secatm.tables.InconsistentModel` with both provenance chains.  A
sweep re-applies a record or step only when a table it reads has narrowed
since its last application (semi-naive evaluation), which changes no event
and no order of events.
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

class _Bound(NamedTuple):
    """One inequality, ``target[m] <= scale * sum(source[n])`` at each index
    pair (target row, one row per source), over stored rows.  Applying it
    lowers ``target[m].hi``.  A record with a ``lo_detail`` (one source,
    scale 1) first raises ``source[n].lo`` to ``target[m].lo``, over all
    pairs, and then lowers the upper ends.  ``detail`` and ``lo_detail`` are
    the provenance text of the two sides."""

    rule: str
    target: BoundTable
    sources: tuple
    pairs: list
    detail: str
    lo_detail: str | None = None
    scale: int = 1

    @property
    def inputs(self) -> tuple:
        """The tables the record reads, each once."""
        return self.sources if self.lo_detail is None else (*self.sources, self.target)

    def apply(self) -> bool:
        raised = self.lo_detail is not None and self._raise()
        return self._lower() | raised

    def _raise(self) -> bool:
        source, changed = self.sources[0], False
        rows, target = source.rows, self.target.rows
        for m, (n,) in self.pairs:
            if target[m].lo > rows[n].lo:
                changed |= source.raise_lo(n, target[m].lo, self.rule, self.lo_detail)
        return changed

    def _lower(self) -> bool:
        target, scale, rows = self.target, self.scale, self.target.rows
        first, *rest = [s.rows for s in self.sources]
        changed = False
        for m, ns in self.pairs:
            hi = first[ns[0]].hi
            if rest and hi is not None:  # product and triangle sums only
                parts = [other[n].hi for other, n in zip(rest, ns[1:])]
                hi = None if None in parts else hi + sum(parts)
            if hi is None:
                continue
            current = rows[m].hi
            if current is None or scale * hi < current:
                changed |= target.lower_hi(m, scale * hi, self.rule, self.detail)
        return changed


def _fixpoint(rules) -> None:
    """Sweep the records and table steps in order until a sweep narrows
    nothing, skipping one while no table it reads (``inputs``) has narrowed
    since its last application (semi-naive evaluation).  Skipping is exact:
    an application leaves every pair of its record satisfied unless it
    narrowed an input, and narrowing its target further cannot unsatisfy a
    pair.  The counts are taken before the application, so a table step,
    which reads the rows it narrows, runs again after it narrowed; they
    only grow, so their sum tells whether any of them moved."""
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
                    self.tables[(inv, name)] = self._table(inv, name, model)

        self.rules = self._rules()
        self._apply_lower_bounds()

        # sweep until quiet, skipping steps whose inputs did not narrow
        _fixpoint(self.rules)
        return self.tables

    # -- the facts a model fixes -----------------------------------------------
    def _table(self, inv, name, model) -> BoundTable:
        """The table of ``inv`` on ``model``, narrowed by the facts the model
        alone fixes.  It stabilizes at ``_dim_param``, and where the homotopy
        ``inv`` reads vanishes from degree d0, its classical entry equals
        entry max(d0 - 1, 1) (d0 for secat, whose fiber's homotopy counts;
        never for hdm).  Then come connectivity vanishing (cat), the
        declared homotopy and the dimension-connectivity cap (dm), and last
        the recorded classical value, which walks down only to the rows
        the others left looser than it.  Each narrows this table alone."""
        d0, whose, lag = ((model.pi_vanish_from, "", 1) if inv in ("cat", "tc") else
                          (model.codomain.pi_vanish_from, "codomain ", 1) if inv == "dm" else
                          (model.fiber_pi_vanish_from, "fiber ", 0) if inv == "secat" else
                          (None, "", 0))
        pi_row = None if d0 is None else (
            max(d0 - lag, 1), f"{whose}homotopy vanishes from degree {d0}")
        table = BoundTable(inv, name, self.max_m, _dim_param(inv, model), pi_row)
        if inv == "cat":
            conn = model.conn
            for m in table.rows_for(range(1, min(conn, self.max_m) + 1)):
                table.lower_hi(m, 0, "conn_vanishing", f"{conn}-connected forces 0 at m <= {conn}")
        elif inv == "dm":
            if model.homotopic:
                for m in table.stored:
                    table.lower_hi(m, 0, "homotopic_zero", "the two maps are declared homotopic")
            # dimension-connectivity cap, from the row the codomain's
            # homotopy vanishing equates with the classical entry on
            hx, cy = model.domain.hdim, model.codomain.conn
            if d0 is not None and hx is not None:
                bound = -(-(hx + 1) // (cy + 1)) - 1  # strict rational bound
                for m in table.rows_for(range(pi_row[0], self.max_m + 1)):
                    table.lower_hi(m, bound, "dim_conn_cap", f"< (hdim {hx}+1)/(conn {cy}+1)")
        value = getattr(model, _KNOWN[inv]) if inv in _KNOWN else None
        if self.use_literature and value is not None:
            for narrow in (table.raise_lo, table.lower_hi):
                narrow(INF, value, "literature", f"recorded classical value {value}")
        return table

    # -- cup-length lower bounds ----------------------------------------------
    def _lower_targets(self):
        """Tables that need cup-length lower bounds: the requested ones plus
        every table whose lower bounds reach them.  Between tables, lower
        bounds flow only through records with a ``lo_detail``, from the
        record's target to its source."""
        feeds: dict = {}  # table key -> keys whose lower bounds flow into it
        for rule in self.rules:
            if isinstance(rule, _Bound) and rule.lo_detail is not None:
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
    def _pairs(self, target, sources):
        """The index pairs of one record resolved against the stored rows of
        its tables, (target row, source rows), without those the tables
        already imply: a pair (m, the source rows holding entry m) for each
        stored finite row m of the target, and then the target's inf row
        paired with the source rows of the target's first stable m, or of
        inf when no finite m is stable.  A later m would bind the same inf
        row through source rows no lower, and table rows are monotone, so
        its pair could narrow nothing.  Records whose tables stabilize alike
        share one list."""
        key = (target.stable_from, *[s.stable_from for s in sources])
        pairs = self._pair_cache.get(key)
        if pairs is None:
            stop = target.stable_from  # max_m + 1 when no finite m is stable
            tail = INF if stop > self.max_m else stop
            pairs = self._pair_cache[key] = [
                (m, tuple([s.row(m) for s in sources])) for m in range(1, stop)]
            pairs.append((INF, tuple([s.row(tail) for s in sources])))
        return pairs

    def _rules(self):
        """Every narrowing rule of the fixpoint in sweep order: the records,
        each an inequality between tables, and one step per table for the
        facts that relate it only to itself (``BoundTable.apply``)."""
        b, t, name_of, rules = self.bundle, self.t, self.name_of, []

        def le(rule, target, sources, detail, scale=1, lo_detail=None):
            sources = tuple(sources)
            rules.append(_Bound(rule, target, sources, self._pairs(target, sources),
                                detail, lo_detail, scale))

        for name, f in b.fibrations.items():
            s, c = t("secat", name), t("cat", name_of(f.base))
            le("secat_le_cat_base", s, [c], f"at most cat[{c.target}]",
               lo_detail=f"at least secat[{name}]")
            if f.total_contractible:  # the other direction is secat_le_cat_base
                detail = "contractible total space"
                le("secat_eq_cat_contractible", c, [s], detail, lo_detail=detail)
        rules += [tab for tab in self.tables.values()
                  if tab.stable_from > 1 and (tab.dim is not None or tab.pi_row is not None)]

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
            if s.h_space_with_division:  # the other direction is cat_le_tc
                detail = "H-space with division"
                le("h_space_eq", t("tc", name), [t("cat", name)], detail, lo_detail=detail)

        for name, p in b.map_pairs.items():
            aug_g, aug_f = p.gstar.is_augmentation(), p.fstar.is_augmentation()
            if not (aug_g or aug_f):
                continue
            other = p.fstar if aug_g else p.gstar
            dm = t("dm", name)
            cdom, ccod = t("cat", name_of(p.domain)), t("cat", name_of(p.codomain))
            if other.is_identity():  # dm <= cat[domain] raises no lower end
                detail = "distance to a constant map equals cat"
                le("const_vs_identity", dm, [cdom], detail, lo_detail=detail)
                le("const_vs_identity", cdom, [dm], detail, lo_detail=detail)
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
