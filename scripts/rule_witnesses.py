"""Small bundles on which every rule id of the engine narrows an entry.

    python scripts/rule_witnesses.py

prints, for each witness, the rule ids it is there for and the entries they
narrowed.  The golden cases, ``models/`` and the benchmark's rules-wide
catalogue leave nine ids without an event (``homotopic_zero``,
``dim_conn_cap``, ``secat_eq_cat_contractible``, ``skeletal_cap``,
``dm_le_tc_codomain``, ``triangle``, ``tc_le_cat_square``,
``const_vs_identity`` and ``const_pair_cap``); the witnesses fire all 24
between them, so a change to any rule shows in the sixth line of
``scripts/output_digest.py``.  Each witness is a sound model: a recorded
value left out or an hdim left unknown makes the engine carry the value
across tables by the rule under test.  Standard library only; the package
is imported from this checkout's ``src``.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from secatm.algebra import RingMorphism  # noqa: E402
from secatm.engine import Bundle, compute_tables  # noqa: E402
from secatm.spaces import (  # noqa: E402
    FibrationModel,
    MapPairModel,
    SpaceModel,
    constant_map_pullback,
    nonorientable_surface,
    orientable_surface,
    point,
    product,
    sphere,
)

# every rule id the engine narrows with
RULE_IDS = (
    "conn_vanishing", "literature", "homotopic_zero", "dim_conn_cap", "cup_length",
    "monotone_m", "classical_cap", "secat_le_cat_base", "secat_eq_cat_contractible",
    "dim_recovery", "skeletal_cap", "stabilize", "pi_vanishing_eq", "product_subadd",
    "dm_le_cat_domain", "dm_le_tc_codomain", "hdm_le_dm", "triangle", "cat_le_tc",
    "tc_le_2cat", "tc_le_cat_square", "h_space_eq", "const_vs_identity",
    "const_pair_cap",
)


def _bundle(**models) -> Bundle:
    bundle = Bundle()
    for name, model in models.items():
        kind = {SpaceModel: "space", FibrationModel: "fibration"}.get(type(model), "map_pair")
        getattr(bundle, f"add_{kind}")(name, model)
    return bundle


def skeletal_cap() -> Bundle:
    """Two equal maps from the genus-3 surface X, with no recorded values and
    no known homotopy vanishing, to S^1 x S^1 x S^2.  dm[inf] <= dm[1] + 1
    by dimension recovery and <= max(dm[1], 2) = 2 by the skeletal cap;
    without the cap dm[inf] stays at most 3, as tc of the codomain is 4."""
    x = replace(orientable_surface(3), known_cat=None, known_tc=None, pi_vanish_from=None)
    y = product([sphere(1), sphere(1), sphere(2)])
    images = {"a(x)1(x)1": {"a1": 1}, "1(x)a(x)1": {"b1": 1}, "a(x)a(x)1": {"w": 1}}
    f, g = (RingMorphism.from_images(y.algebra, x.algebra, images) for _ in range(2))
    return _bundle(x=x, y=y, fg=MapPairModel(domain=x, codomain=y, fstar=f, gstar=g))


def triangle() -> Bundle:
    """The identity of the torus against itself through two declared
    homotopies: dm is 0 through the triangle of the two legs, each 0 as
    declared homotopic."""
    t2 = orientable_surface(1)
    ident = RingMorphism.identity(t2.algebra)
    legs = [MapPairModel(domain=t2, codomain=t2, fstar=ident, gstar=ident, homotopic=True)
            for _ in range(2)]
    return _bundle(t2=t2, p=MapPairModel(domain=t2, codomain=t2, fstar=ident, gstar=ident,
                                         triangle=tuple(legs)))


def dim_conn_cap() -> Bundle:
    """A map from the genus-3 surface, with no known homotopy vanishing,
    onto the circle, against a constant map: the circle's homotopy vanishes
    from degree 2, so dm < (2 + 1)/(0 + 1) from m = 1 on."""
    x = replace(orientable_surface(3), pi_vanish_from=None)
    circle = sphere(1)
    f = RingMorphism.from_images(circle.algebra, x.algebra, {"a": {"a1": 1}})
    return _bundle(x=x, s1=circle, fc=MapPairModel(
        domain=x, codomain=circle, fstar=f, gstar=constant_map_pullback(circle, x)))


def const_pair_cap() -> Bundle:
    """A degree-one map from the genus-2 surface onto S^2 against a constant
    map: dm <= cat(S^2) = 1, below cat of the surface and tc(S^2), both 2."""
    x, s2 = orientable_surface(2), sphere(2)
    f = RingMorphism.from_images(s2.algebra, x.algebra, {"a": {"w": 1}})
    return _bundle(x=x, s2=s2, fc=MapPairModel(
        domain=x, codomain=s2, fstar=f, gstar=constant_map_pullback(s2, x)))


def const_vs_identity() -> Bundle:
    """The identity of the genus-2 surface against a constant map, with the
    distance recorded (2) and the surface's cat not: cat <= 2 comes from
    the distance."""
    x = replace(orientable_surface(2), known_cat=None, known_tc=None)
    return _bundle(x=x, ic=MapPairModel(
        domain=x, codomain=x, fstar=RingMorphism.identity(x.algebra),
        gstar=constant_map_pullback(x, x), known_d=2))


def secat_eq_cat_contractible() -> Bundle:
    """The path fibration over S^2, its total space contractible and its
    secat recorded (1), over a base whose cat is not: cat <= 1 comes from
    secat."""
    s2, pt = replace(sphere(2), known_cat=None, known_tc=None), point()
    return _bundle(s2=s2, path=FibrationModel(
        base=s2, total_algebra=pt.algebra, pstar=constant_map_pullback(s2, pt),
        total_contractible=True, known_secat=1))


def tc_le_cat_square() -> Bundle:
    """S^3 as an H-space with no recorded tc, and S^1 with no recorded
    values and its square S^1 x S^1 with cat recorded (2): tc(S^1) <= 2
    comes from the square alone, and tc(S^3) <= cat(S^3) = 1 from the
    H-space."""
    circle = replace(sphere(1), known_cat=None, known_tc=None)
    square = replace(product([circle, circle]), known_cat=2)
    return _bundle(s1=replace(circle, square=square),
                   s3=replace(sphere(3), known_tc=None, h_space_with_division=True))


def pi_vanishing_eq() -> Bundle:
    """The Klein bottle over F2 with its recorded tc (4): it is aspherical,
    so tc at m = 1 equals the classical tc and is raised to 4 above its
    zero-divisor cup-length, and rows 2 and 3 follow by monotonicity."""
    return _bundle(k=nonorientable_surface(2))


# name -> (the rule ids it is there for, bundle maker); each runs with
# ``compute_tables`` defaults, with recorded values
WITNESSES = {
    "skeletal_cap": (("skeletal_cap", "dm_le_tc_codomain", "dim_recovery"), skeletal_cap),
    "triangle": (("triangle", "homotopic_zero"), triangle),
    "dim_conn_cap": (("dim_conn_cap",), dim_conn_cap),
    "const_pair_cap": (("const_pair_cap",), const_pair_cap),
    "const_vs_identity": (("const_vs_identity",), const_vs_identity),
    "secat_eq_cat_contractible": (("secat_eq_cat_contractible", "secat_le_cat_base"),
                                  secat_eq_cat_contractible),
    "tc_le_cat_square": (("tc_le_cat_square", "h_space_eq"), tc_le_cat_square),
    "pi_vanishing_eq": (("pi_vanishing_eq", "monotone_m"), pi_vanishing_eq),
}


def runs() -> list:
    """(name, the ids it is there for, its tables) of every witness."""
    return [(name, ids, compute_tables(make())) for name, (ids, make) in WITNESSES.items()]


def fired(tables) -> dict:
    """rule id -> the (invariant, target, m) entries its events narrowed, in
    the tables' order, tail rows included."""
    out: dict = {}
    for (inv, target), table in tables.items():
        events = table.events
        for m in table.index:
            for rule in dict.fromkeys(e.rule for e in events[m]):
                out.setdefault(rule, []).append((inv, target, m))
    return out


if __name__ == "__main__":
    for name, ids, tables in runs():
        print(f"{name}:")
        where = fired(tables)
        for rule in ids:
            entries = where.get(rule, [])
            shown = ", ".join(f"{inv}[{target}] m={m}" for inv, target, m in entries[:3])
            more = f" and {len(entries) - 3} more" if len(entries) > 3 else ""
            print(f"  {rule}: {shown or 'nothing'}{more}")
