"""Bound tables for cat, tc, secat, dm and hdm over m = 1..M plus the
classical column, produced by exact cup-length lower bounds and a narrowing
rule system iterated to a fixpoint.

Every rule is a record in one table built per run: a one-sided bound
(a target table narrowed from source tables at shared index pairs) or an
equality between two table entries.  The m-dimensional invariants equal the
classical ones from m = hdim on (twice hdim for tc; Schwarz), so a table
stores rows only below that m (see :mod:`secatm.tables`), and each record's
index pairs are resolved once against the stored rows.  Every rule only
narrows intervals, so iteration terminates; a crossing pair of bounds raises
:class:`~secatm.tables.InconsistentModel` with both provenance chains.
Lower bounds come from capped cup-lengths over spans of ideal generators:
for cat, the algebra generators of H^+ (the basis classes that complement
the decomposables); for tc, a (x) 1 - 1 (x) a over those generators, which
generate the ideal of zero divisors in the tensor square (field
coefficients only); for secat, the pullback kernel; for dm and hdm,
(f* - g*) of the codomain's generators in the domain.  At every cap an
ideal and a generating set of it have the same capped cup-length, so the
bounds are those of the whole ideals.  They carry their certificates in the
provenance, and are applied lazily: only to the requested tables and to
tables whose lower bounds reach them through a rule record.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .algebra import GradedAlgebra, Subspace, TensorProduct, kernel, tensor_square
from .cuplength import CupLengthQuery, capped_cuplength
from .linalg import FieldEchelon, vis_zero, vsub, vunit
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

# Index pairs (m, n, shift) by kind: the target entry m is narrowed from the
# source entry n, offset by shift.  Finite m run up to ``last`` only: the
# engine passes the last m that is not the inf entry in every table of the
# record, and every pair beyond it reads and writes inf entries only.
_PAIRS = {
    "same": lambda last, M, d: [(m, m, 0) for m in range(1, last + 1)] + [(INF, INF, 0)],
    "up": lambda last, M, d: [(m + 1, m, 0) for m in range(1, min(last, M - 1) + 1)],
    "down": lambda last, M, d: [(m, m + 1, 0) for m in range(1, min(last, M - 1) + 1)],
    "to_inf": lambda last, M, d: [(INF, m, 0) for m in range(1, last + 1)],
    "from_inf": lambda last, M, d: [(m, INF, 0) for m in range(1, last + 1)],
    "recover_hi": lambda last, M, d: [(INF, m, d // (m + 1)) for m in range(1, last + 1)],
    "recover_lo": lambda last, M, d: [(m, INF, -(d // (m + 1))) for m in range(1, last + 1)],
    "skeleton": lambda last, M, d: [(INF, d - 1, 0)] if 1 <= d - 1 <= M else [],
    "stable": lambda last, M, d: [(m, INF, 0) for m in range(max(d, 1), last + 1)],
}


class _Bound(NamedTuple):
    """One side of an inequality: ``target[m]`` is raised to
    ``source[n].lo + shift`` (side ``lo``, one source), or lowered to
    ``max(scale * sum(source[n].hi) + shift, floor)`` (side ``hi``).  Each
    pair is (target row, one row per source, shift), over stored rows."""

    rule: str
    side: str
    target: BoundTable
    sources: tuple
    pairs: list
    detail: object  # str, or (m, n) -> str
    scale: int = 1
    floor: int = 0

    def text(self, m, n) -> str:
        return self.detail if isinstance(self.detail, str) else self.detail(m, n)

    def apply(self) -> bool:
        return self._raise() if self.side == "lo" else self._lower()

    def _raise(self) -> bool:
        target = self.target
        rows, source = target.rows, self.sources[0].rows
        changed = False
        for m, (n,), shift in self.pairs:
            value = source[n].lo + shift
            if value > rows[m].lo:
                changed |= target.raise_lo(m, value, self.rule, self.text(m, n))
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
                changed |= target.lower_hi(m, value, self.rule, self.text(m, ns[0]))
        return changed


class _Equal(NamedTuple):
    """``a[m] = b[n]`` at each index pair: both sides raise and lower."""

    rule: str
    a: BoundTable
    b: BoundTable
    pairs: list
    detail: str

    def apply(self) -> bool:
        a, b, rule, detail = self.a, self.b, self.rule, self.detail
        a_rows, b_rows = a.rows, b.rows
        changed = False
        for m, (n,), _ in self.pairs:
            ea, eb = a_rows[m], b_rows[n]
            if eb.lo > ea.lo:
                changed |= a.raise_lo(m, eb.lo, rule, detail)
            if ea.lo > eb.lo:
                changed |= b.raise_lo(n, ea.lo, rule, detail)
            if eb.hi is not None and (ea.hi is None or eb.hi < ea.hi):
                changed |= a.lower_hi(m, eb.hi, rule, detail)
            if ea.hi is not None and (eb.hi is None or ea.hi < eb.hi):
                changed |= b.lower_hi(n, ea.hi, rule, detail)
        return changed


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
        # algebra -> its cup-length IntegerStructure, shared by every DP of
        # the run and by the structure of its square; keyed by the algebra
        # itself, which the map keeps alive, so a dropped algebra's id is
        # never taken for a new one's
        self._structures: dict = {}
        # algebra -> its ``_generators``, ranked once per run for cat, tc
        # and the map pairs into it, keyed the same way
        self._generators_of = functools.cache(_generators)

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

        # sweep every record, in order, until a whole sweep narrows nothing
        while any([rule.apply() for rule in self.rules]):
            pass
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
        every table whose lower bounds reach them through ``lo`` records and
        equalities."""
        feeds: dict = {}  # table key -> keys whose lower bounds flow into it
        for rule in self.rules:
            if isinstance(rule, _Equal):
                flows = [(rule.a, rule.b), (rule.b, rule.a)]
            else:
                flows = [(rule.target, rule.sources[0])] if rule.side == "lo" else []
            for target, source in flows:
                feeds.setdefault(target.key(), []).append(source.key())
        seen = set()
        todo = list(self.tables if self.requested is None else self.requested)
        while todo:
            key = todo.pop()
            if key in self.tables and key not in seen:
                seen.add(key)
                todo.extend(feeds.get(key, ()))
        return seen

    def _apply_lower_bounds(self):
        # dm reads hdm's source, so a pair's two tables share its source and,
        # where their caps agree, its cup-length values
        sources, runs = {}, {}
        for inv, name in sorted(self._lower_targets()):
            table = self.tables[(inv, name)]
            key = ("hdm" if inv == "dm" else inv, name)
            if key not in sources:
                sources[key] = _lower_source(inv, self.model(inv, name), self._generators_of)
            source = sources[key]
            table.lower_bounds_applied = True
            if source is None or source[1].is_zero():
                continue
            algebra, generators, what = source
            degmax = max(generators.degrees())
            last = min(table.stable_from - 1, degmax)  # with degmax, fixes the caps
            if (key, last) not in runs:
                runs[key, last] = self._capped_values(algebra, generators, degmax, last)
            values = runs[key, last]
            if inv == "tc":  # the square was built for this table alone
                self._structures.pop(algebra, None)
            for m in table.stored:
                eff = degmax if m == INF else min(m, degmax)
                length, cert = values[eff]
                if length > 0:
                    table.raise_lo(
                        m, length, "cup_length",
                        f"{length} classes of degree <= {eff} from {what} "
                        f"with nonzero product",
                        certificate=cert,
                    )

    def _capped_values(self, algebra, generators, degmax, last):
        """cap -> (length, certificate) for the caps of m = 1..last and inf:
        min(m, degmax) and degmax.

        The length is monotone in the cap, so the sorted caps are bisected: a
        range whose end caps agree is constant and takes the certificate of
        its lower end, which also verifies at every larger cap.  Caps with the
        same generators of degree <= cap, those with the same largest such
        degree, share one DP run, and a cap below every generator has length
        0 without one."""
        caps = sorted({*range(1, min(last, degmax) + 1), degmax})
        values, runs = {}, {0: (0, None)}  # runs: by largest degree <= cap

        def compute(i):
            key = max((d for d in generators.degrees() if d <= caps[i]), default=0)
            if key not in runs:
                runs[key] = capped_cuplength(
                    CupLengthQuery(algebra, generators, key), self._structures)
            values[caps[i]] = runs[key]
            return runs[key]

        todo = [(0, len(caps) - 1)]  # index ranges of caps, lower half first
        while todo:
            i, j = todo.pop()
            if compute(i)[0] == compute(j)[0]:
                values.update((c, values[caps[i]]) for c in caps[i + 1:j])
            elif j - i > 1:
                todo += [((i + j) // 2, j), (i, (i + j) // 2)]
        return values

    # -- the rule table ----------------------------------------------------------
    def _pairs(self, kind, dim, target, sources):
        """The index pairs of one record resolved against the stored rows of
        its tables: (target row, source rows, shift), without duplicates and
        without pairs that bound an entry by itself.  Records whose tables
        stabilize alike share one list."""
        stable = [t.stable_from for t in (target, *sources)]
        itself = sources == (target,)
        key = (kind, dim, *stable, itself)
        if key not in self._pair_cache:
            raw = _PAIRS[kind](min(self.max_m, max(stable)), self.max_m, dim)
            # an index with no stored row of its own is the inf entry
            columns = [[n if n in s.rows else INF for _, n, _ in raw] for s in sources]
            pairs, rows_of = {}, target.rows
            for (m, _, shift), rows in zip(raw, zip(*columns)):
                row = m if m in rows_of else INF
                if shift or not itself or rows[0] != row:
                    pairs[row, rows, shift] = None
            self._pair_cache[key] = list(pairs)
        return self._pair_cache[key]

    def _rules(self):
        """Every narrowing rule of the fixpoint as a record, in sweep order."""
        b, t, name_of = self.bundle, self.t, self.name_of
        rules = []

        def add(record):
            if record.pairs:  # a record with no pair left can never narrow
                rules.append(record)

        def lo(rule, target, source, detail, kind="same", dim=None):
            pairs = self._pairs(kind, dim, target, (source,))
            add(_Bound(rule, "lo", target, (source,), pairs, detail))

        def hi(rule, target, sources, detail, kind="same", dim=None, scale=1, floor=0):
            pairs = self._pairs(kind, dim, target, tuple(sources))
            add(_Bound(rule, "hi", target, tuple(sources), pairs, detail, scale, floor))

        def eq(rule, a, b_, detail, kind="same", dim=None):
            add(_Equal(rule, a, b_, self._pairs(kind, dim, a, (b_,)), detail))

        for tab in self.tables.values():
            lo("monotone_m", tab, tab, lambda m, n: f"at least the m={n} entry", "up")
            hi("monotone_m", tab, [tab], lambda m, n: f"at most the m={n} entry", "down")
        for tab in self.tables.values():
            lo("classical_cap", tab, tab, lambda m, n: f"dominates the m={n} entry", "to_inf")
            hi("classical_cap", tab, [tab], "at most the classical value", "from_inf")
        for name, f in b.fibrations.items():
            s, c = t("secat", name), t("cat", name_of(f.base))
            hi("secat_le_cat_base", s, [c], f"at most cat[{c.target}]")
            lo("secat_le_cat_base", c, s, f"at least secat[{name}]")
            if f.total_contractible:
                eq("secat_eq_cat_contractible", s, c, "contractible total space")
        dims = [(tab, tab.dim) for tab in self.tables.values() if tab.dim is not None]
        for tab, dim in dims:
            hi("dim_recovery", tab, [tab],
               lambda m, n, d=dim: f"m={n} entry + floor({d}/{n + 1})", "recover_hi", dim)
            lo("dim_recovery", tab, tab,
               lambda m, n, d=dim: f"classical entry - floor({d}/{m + 1})", "recover_lo", dim)
        for tab, dim in dims:
            hi("skeletal_cap", tab, [tab], lambda m, n: f"max of the m={n} entry and 2",
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
                hi("product_subadd", t(inv, name), [t(inv, fn) for fn in fnames],
                   f"sum over factors {fnames}")

        for name, p in b.map_pairs.items():
            dm = t("dm", name)
            cdom, tcod = t("cat", name_of(p.domain)), t("tc", name_of(p.codomain))
            hi("dm_le_cat_domain", dm, [cdom], f"at most cat[{cdom.target}]")
            hi("dm_le_tc_codomain", dm, [tcod], f"at most tc[{tcod.target}]")
        for name in b.map_pairs:
            dm, hdm = t("dm", name), t("hdm", name)
            lo("hdm_le_dm", dm, hdm, "at least the cohomological distance")
            hi("hdm_le_dm", hdm, [dm], "at most the homotopic distance")
        for name, p in b.map_pairs.items():
            if p.triangle is not None:
                dl, dr = (t("dm", name_of(x)) for x in p.triangle)
                hi("triangle", t("dm", name), [dl, dr],
                   f"through {dl.target} and {dr.target}")

        for name in b.spaces:
            cat, tc = t("cat", name), t("tc", name)
            lo("cat_le_tc", tc, cat, "at least cat")
            hi("cat_le_tc", cat, [tc], "at most tc")
        for name, s in b.spaces.items():
            cat, tc = t("cat", name), t("tc", name)
            hi("tc_le_2cat", tc, [cat], "at most twice cat", scale=2)
            if s.square is not None:
                csq = t("cat", name_of(s.square))
                hi("tc_le_cat_square", tc, [csq], f"at most cat[{csq.target}]")
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
                hi("const_pair_cap", dm, [ccod], f"at most cat[{ccod.target}]")
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


def _generators(A: GradedAlgebra) -> list[tuple[int, int]]:
    """``(degree, index)`` of the basis classes of positive degree that
    generate ``A`` as an algebra: degree by degree, in basis order, each
    class that grows the rank of the decomposables and the classes kept
    before it.  Ranks are taken over F_p for a prime field and over Q
    otherwise; the cup-length DP decides vanishing by rank over Q, so over
    Z these generate for it as well.

    A :class:`TensorProduct` A (x) B is ranked without its table: its
    degree-d decomposables are the blocks A_p (x) B_(d-p) for 0 < p < d,
    1 (x) dec(B_d) and dec(A_d) (x) 1, so it keeps the slots of 1 (x) h and
    g (x) 1 for the factors' generators h and g."""

    def rank(A):
        if isinstance(A, TensorProduct):
            return sorted([(d, A.slot(0, 0, d, j)) for d, j in rank(A.right)] +
                          [(d, A.slot(d, i, 0, 0)) for d, i in rank(A.left)])
        echelons = [FieldEchelon(n, A.coeff.p) for n in A.dims()]
        for (d1, _, d2, _), row in A.table.items():
            e = echelons[d1 + d2]
            if e.rank < e.width:
                e.insert(row)
        generators = []
        for d in range(1, A.top_degree + 1):
            e = echelons[d]
            for i in range(e.width):
                if e.rank == e.width:
                    break
                if e.insert({i: 1}):
                    generators.append((d, i))
        return generators

    return rank(A)


def _lower_source(inv, model, generators=None):
    """(algebra, generator subspace, description) feeding the cup-length
    lower bound of ``inv`` on ``model``, or None when it does not apply;
    ``generators``, if given, stands in for ``_generators``.

    Each source spans a set of generators of an ideal, from the algebra
    generators g of ``_generators``.  cat reads the g themselves, which
    generate H^+.  tc reads ``g (x) 1 - 1 (x) g`` in the tensor square
    (``TensorProduct.zero_divisor``), which generate the kernel of the cup
    product (Farber 2003), over a field only.  dm and hdm read
    ``(f* - g*)(g)`` for the pair's f* and g*, with g running over the
    codomain's generators, which generate the ideal of im(f* - g*), as
    ``(f* - g*)(ab) = (f*a - g*a) f*b + g*a (f*b - g*b)``; dm's pushed zero
    divisors ``(f*a - g*a) g*b`` lie in that ideal too.  A product of k
    ideal elements of degree <= cap expands into terms that each hold a
    product of k generators of degree <= cap, so at every cap the spans
    have the cup-length of their ideals."""
    if inv == "secat":
        return model.base.algebra, kernel(model.pstar), "ker(pullback)"
    generators = generators or _generators
    rows = {}
    if inv == "cat":
        A = model.algebra
        for d, i in generators(A):
            rows.setdefault(d, []).append(vunit(A.coeff, A.dim(d), i))
        return A, Subspace(A, rows), "H^+"
    if inv == "tc":
        if not model.algebra.coeff.is_field:
            return None
        X = tensor_square(model.algebra)[0]
        for d, i in generators(model.algebra):
            rows.setdefault(d, []).append(X.zero_divisor(d, i))
        return X, Subspace(X, rows), "ker(cup)"
    f, g, X = model.fstar, model.gstar, model.domain.algebra
    for d, i in generators(f.source):
        diff = vsub(X.coeff, f.mats[d][i], g.mats[d][i])
        if not vis_zero(diff):
            rows.setdefault(d, []).append(diff)
    return X, Subspace(X, rows), "im(f* - g*)"
