"""Workload definitions: seeded inputs and the cases one pass runs.

Every workload is a list of cases.  A case is a callable that runs the
program on inputs built during set-up and returns its raw output; the
checker (``checker.py``) judges that output after the timed pass.

Inputs come only from ``--seed``.  The seed picks which catalogue items a
bundle holds, the order of cases and items, and the presentation of the
generated model files (factor order, basis order, basis names, which half of
each graded-commutative product pair is listed).  None of these choices
changes a correct answer, so reference intervals stored once per catalogue
item or pool model stay valid for every seed.

Why each workload exists (the layer it stresses):

* ``tc-ladder``: the cup-length DP, certificate extraction, ``mul_vectors``
  and echelon inserts do over 90% of the work and the rules almost none.
  Every table hits the equal-end-caps shortcut, so this is the regime of a
  few large DPs.  T^4 over Q and over F2 share their structure constants and
  differ only in scalar arithmetic.
* ``rules-wide``: the rule fixpoint and ``BoundTable`` narrowing do about
  half the work, and per-m table storage grows with M=256.  Cup-length runs
  as hundreds of tiny queries whose length changes with the cap, so cap
  scheduling and per-query overhead show while a DP-kernel speed-up shows
  little.
* ``cli-models``: the path users run, and the only workload where JSON
  parsing, exhaustive algebra and morphism validation, JSON rendering and
  the tensor square and kernel of the dependency closure do real work.  The
  cup-length DP is small here.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("tc-ladder", "rules-wide", "cli-models")
RULES_WIDE_M = 256


@dataclass
class Case:
    """One unit of work in a pass: ``run()`` returns the raw output."""

    id: str
    run: Callable[[], object]


@dataclass
class Workload:
    cases: list[Case]
    # context the checker needs (models, reference keys); never timed
    context: dict
    # per case bundle, a call that runs ``compute_tables(..., targets=[])``
    # and returns the seconds it took, for the traced run's rules-only figure
    rules_only: list[Callable[[], float]]


def _rules_only(engine, load_bundle, **kwargs) -> Callable[[], float]:
    def run():
        bundle = _copy_bundle(engine, load_bundle())
        t0 = time.perf_counter()
        engine.compute_tables(bundle, targets=[], **kwargs)
        return time.perf_counter() - t0
    return run


def _copy_bundle(engine, bundle):
    """A fresh Bundle over the same models.  The engine registers factor
    spaces into the bundle it is given, so every pass gets its own copy."""
    b = engine.Bundle()
    b.spaces.update(bundle.spaces)
    b.fibrations.update(bundle.fibrations)
    b.map_pairs.update(bundle.map_pairs)
    return b


# ---------------------------------------------------------------------------
# tc-ladder
# ---------------------------------------------------------------------------

def _tc_ladder_specs():
    """(case id, invariant, space constructor) for every rung of the ladder."""
    from secatm import spaces
    from secatm.domains import GF, Q

    def torus(k, coeff):
        return lambda: spaces.product([spaces.sphere(1, coeff) for _ in range(k)])

    return [
        ("rp8", "tc", lambda: spaces.real_projective(8)),
        ("rp10", "tc", lambda: spaces.real_projective(10)),
        ("rp12", "tc", lambda: spaces.real_projective(12)),
        ("t3q", "tc", torus(3, Q)),
        ("t4q", "tc", torus(4, Q)),
        ("t4f2", "tc", torus(4, GF(2))),
        ("sigma3", "tc", lambda: spaces.orientable_surface(3)),
        ("sigma4", "tc", lambda: spaces.orientable_surface(4)),
        ("rp16cat", "cat", lambda: spaces.real_projective(16)),
    ]


def build_tc_ladder(seed: int, workdir: str) -> Workload:
    from secatm import engine

    specs = _tc_ladder_specs()
    random.Random(seed).shuffle(specs)
    cases, rules_only = [], []
    for cid, inv, build in specs:
        bundle = engine.Bundle()
        bundle.add_space(cid, build())
        key = (inv, cid)

        def run(bundle=bundle, key=key):
            return engine.compute_tables(_copy_bundle(engine, bundle), targets=[key])

        cases.append(Case(cid, run))
        rules_only.append(_rules_only(engine, lambda bundle=bundle: bundle))
    targets = {cid: (inv, cid) for cid, inv, _ in specs}
    return Workload(cases, {"targets": targets}, rules_only)


# ---------------------------------------------------------------------------
# rules-wide
# ---------------------------------------------------------------------------

def rules_wide_catalogue():
    """Catalogue item id -> function returning [(kind, name, model)].

    Each item is self-contained (its factors are its own objects), so its
    tables do not depend on what else shares the bundle.  Items are grouped
    into categories; the seed draws a fixed number from each.
    """
    from secatm import goldens, spaces
    from secatm.domains import GF, Q, Z

    coeffs = {"q": Q, "f2": GF(2), "f3": GF(3), "z": Z}
    cats: dict[str, dict] = {
        "sphere": {}, "cp": {}, "surface": {}, "moore": {}, "product": {},
        "cover": {}, "u2": {},
    }
    for n in range(1, 11):
        for cl, c in coeffs.items():
            cats["sphere"][f"s{n}{cl}"] = (
                lambda n=n, c=c, i=f"s{n}{cl}": [("space", i, spaces.sphere(n, c))])
    for n in range(1, 4):
        cats["cp"][f"cp{n}"] = (
            lambda n=n: [("space", f"cp{n}", spaces.complex_projective(n))])
    for g in range(1, 4):
        cats["surface"][f"sigma{g}"] = (
            lambda g=g: [("space", f"sigma{g}", spaces.orientable_surface(g))])
    for h in range(2, 5):
        cats["surface"][f"nonor{h}"] = (
            lambda h=h: [("space", f"nonor{h}", spaces.nonorientable_surface(h))])
    for r in range(1, 4):
        for n in range(2, 7):
            for cl in ("q", "f2"):
                i = f"moore{r}_{n}{cl}"
                cats["moore"][i] = (
                    lambda r=r, n=n, c=coeffs[cl], i=i:
                    [("space", i, spaces.moore(r, n, c))])
    for a in range(1, 7):
        for b in range(a, 7):
            for cl in ("q", "f2"):
                i = f"s{a}x{b}{cl}"
                cats["product"][i] = (
                    lambda a=a, b=b, c=coeffs[cl], i=i: [("space", i, spaces.product(
                        [spaces.sphere(a, c), spaces.sphere(b, c)]))])
    for n in range(2, 11):
        def cover(n=n):
            base, fib = goldens.covering_fibration(n)
            return [("space", f"rp{n}", base), ("fibration", f"cover{n}", fib)]
        cats["cover"][f"cover{n}"] = cover

    def u2():
        s1, s3, u2space, pair = goldens.unitary_group_pair()
        return [("space", "u2s1", s1), ("space", "u2s3", s3),
                ("space", "u2", u2space), ("map_pair", "u2inv", pair)]
    cats["u2"]["u2"] = u2
    return cats


# how many items the seed draws from each category: about 40 small spaces,
# every double cover RP^2..RP^10 and the U(2) distance pair
RULES_WIDE_DRAW = {"sphere": 10, "cp": 2, "surface": 4, "moore": 8,
                   "product": 16, "cover": 9, "u2": 1}


def rules_wide_items(seed: int) -> list[str]:
    cats = rules_wide_catalogue()
    rng = random.Random(seed)
    items = []
    for cat, count in RULES_WIDE_DRAW.items():
        items += rng.sample(sorted(cats[cat]), count)
    rng.shuffle(items)
    return items


def add_items(bundle, makers, items):
    for item in items:
        for kind, name, model in makers[item]():
            getattr(bundle, f"add_{kind}")(name, model)


def build_rules_wide(seed: int, workdir: str) -> Workload:
    from secatm import engine

    cats = rules_wide_catalogue()
    makers = {i: m for cat in cats.values() for i, m in cat.items()}
    items = rules_wide_items(seed)
    bundle = engine.Bundle()
    add_items(bundle, makers, items)
    cases, rules_only = [], []
    for lit in (True, False):
        def run(lit=lit):
            return engine.compute_tables(
                _copy_bundle(engine, bundle), max_m=RULES_WIDE_M, use_literature=lit)

        cases.append(Case("literature" if lit else "no-literature", run))
        rules_only.append(_rules_only(engine, lambda: bundle, max_m=RULES_WIDE_M,
                                      use_literature=lit))
    return Workload(cases, {"items": items}, rules_only)


# ---------------------------------------------------------------------------
# cli-models
# ---------------------------------------------------------------------------

# Pool of explicit-algebra models: products of spheres, surfaces and CP^n of
# total dimension 8-32.  Each factor is (constructor, argument, flipped):
# the map pair "flip" compares the identity with the automorphism that
# negates the generators of the flipped factors.  The fibration "restrict"
# restricts to the last factor, which keeps its place when the seed permutes
# the others.  "idconst" (identity against a constant map) makes the cat
# query pull in a dm table and with it the tensor square and its kernel; it
# is left off the 32-dimensional models, whose square alone takes seconds.
CLI_POOL = {
    "m8": {"factors": [("sphere", 1, True), ("sphere", 3, True), ("sphere", 2, False)],
           "idconst": True},
    "m12": {"factors": [("complex_projective", 2, True), ("orientable_surface", 1, True)],
            "idconst": True},
    "m16": {"factors": [("sphere", 1, True), ("sphere", 2, False), ("sphere", 2, True),
                        ("sphere", 3, False)],
            "idconst": True},
    "m24": {"factors": [("orientable_surface", 2, True), ("sphere", 1, False),
                        ("sphere", 3, True)],
            "idconst": True},
    "m32a": {"factors": [("sphere", 1, True), ("sphere", 2, False), ("sphere", 4, True),
                         ("sphere", 5, False), ("sphere", 3, True)],
             "idconst": False},
    "m32b": {"factors": [("complex_projective", 3, True), ("sphere", 2, False),
                         ("orientable_surface", 1, False)],
             "idconst": False},
}

CLI_FIXED_MODELS = ("u2.json", "covers.json")


def _flip(alg, kind):
    """Ring automorphism of one factor negating its generators."""
    from secatm.algebra import RingMorphism

    images = {}
    for d in range(1, alg.top_degree + 1):
        for name in alg.names[d]:
            if kind == "complex_projective":
                sign = -1 if d % 4 == 2 else 1          # u^k -> (-1)^k u^k
            elif kind == "orientable_surface":
                sign = -1 if d == 1 else 1              # a_i, b_i -> -a_i, -b_i
            else:
                sign = -1
            images[name] = {name: sign}
    return RingMorphism.from_images(alg, alg, images)


def _model_json(spec: dict, rng: random.Random) -> dict:
    """Explicit-algebra model file for one pool model, presented as the rng
    chooses."""
    from secatm import spaces
    from secatm.algebra import RingMorphism, kunneth_product, make_algebra, tensor_morphism
    from secatm.domains import Q

    factors = list(spec["factors"])
    head, last = factors[:-1], factors[-1]
    rng.shuffle(head)
    factors = head + [last]
    models = [getattr(spaces, k)(a) for k, a, _ in factors]
    flips = [_flip(m.algebra, k) if f else RingMorphism.identity(m.algebra)
             for m, (k, _, f) in zip(models, factors)]

    # X = (head factors) (x) last, with the flip built alongside
    head_alg, head_flip = models[0].algebra, flips[0]
    for m, f in zip(models[1:-1], flips[1:-1]):
        tensor, _, _ = kunneth_product(head_alg, m.algebra)
        head_flip = tensor_morphism(head_flip, f, source_tensor=tensor, target_tensor=tensor)
        head_alg = tensor
    last_alg = models[-1].algebra
    alg, _, _ = kunneth_product(head_alg, last_alg)
    flip = tensor_morphism(head_flip, flips[-1], source_tensor=alg, target_tensor=alg)
    # restriction to the last factor: constant on the head, identity on it
    point = make_algebra(Q, {0: ["1"]}, [])
    total, _, _ = kunneth_product(point, last_alg)
    pstar = tensor_morphism(
        RingMorphism.augmentation(head_alg, point), RingMorphism.identity(last_alg),
        source_tensor=alg, target_tensor=total,
    )

    names = _random_names(alg, rng)
    total_names = _random_names(total, rng)
    x = {
        "algebra": _algebra_json(alg, names, rng),
        "conn": min(m.conn for m in models),
        "hdim": sum(m.hdim for m in models),
    }
    pairs = {
        "flip": {
            "domain": "x", "codomain": "x",
            "fstar": {"kind": "identity"},
            "gstar": {"kind": "images", "images": _morphism_images(flip, names, names)},
        },
    }
    queries = [{"target": "x", "invariant": "cat"},
               {"target": "flip", "invariant": "hdm"},
               {"target": "restrict", "invariant": "secat"}]
    if spec["idconst"]:
        pairs["idconst"] = {"domain": "x", "codomain": "x",
                            "fstar": {"kind": "identity"},
                            "gstar": {"kind": "constant"}}
    rng.shuffle(queries)
    return {
        "schema": "secatm-model/1",
        "coeff": "Q",
        "spaces": {"x": x},
        "fibrations": {
            "restrict": {
                "base": "x",
                "total": {"algebra": _algebra_json(total, total_names, rng)},
                "pstar": {"kind": "images",
                          "images": _morphism_images(pstar, names, total_names)},
            },
        },
        "map_pairs": pairs,
        "queries": queries,
    }


def _random_names(alg, rng) -> list[list[str]]:
    """Fresh random basis names per degree; the unit stays "1"."""
    used = set()
    out = []
    for d in range(alg.top_degree + 1):
        row = []
        for _ in alg.names[d]:
            while True:
                n = f"g{rng.randrange(16 ** 6):06x}"
                if n not in used:
                    used.add(n)
                    break
            row.append(n)
        out.append(row)
    out[0] = ["1"]
    return out


def _algebra_json(alg, names, rng) -> dict:
    # basis lists in a seeded order; entries are matched by name
    basis = {}
    for d in range(alg.top_degree + 1):
        if not alg.names[d]:
            continue
        order = list(names[d])
        rng.shuffle(order)
        basis[str(d)] = order
    products = []
    for (d1, i1, d2, i2), row in alg.table.items():
        if (d2, i2) < (d1, i1):
            continue  # list each unordered pair once; the loader fills mirrors
        left, right = names[d1][i1], names[d2][i2]
        if (d1, i1) != (d2, i2) and rng.random() < 0.5:
            other = alg.table.get((d2, i2, d1, i1))
            if other is not None:
                left, right, row, d1, d2 = right, left, other, d2, d1
        value = {names[d1 + d2][j]: alg.coeff.scalar_to_json(c)
                 for j, c in enumerate(row) if c != 0}
        products.append([left, right, value])
    rng.shuffle(products)
    return {"basis": basis, "products": products}


def _morphism_images(phi, src_names, tgt_names) -> dict:
    out = {}
    for d, rows in phi.mats.items():
        if d == 0:
            continue
        for i, row in enumerate(rows):
            out[src_names[d][i]] = {
                tgt_names[d][j]: phi.source.coeff.scalar_to_json(c)
                for j, c in enumerate(row) if c != 0
            }
    return out


def write_cli_models(seed: int, workdir: str) -> dict[str, str]:
    """Write every pool model, presented as the seed chooses; returns
    pool id -> file path."""
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for model_id in sorted(CLI_POOL):
        data = _model_json(CLI_POOL[model_id], rng)
        path = os.path.join(workdir, f"{model_id}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        paths[model_id] = path
    return paths


def run_cli(argv) -> tuple[int, str]:
    """``secatm.cli.main`` in-process with stdout and stderr captured."""
    from secatm import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def build_cli_models(seed: int, workdir: str) -> Workload:
    from secatm import engine, modelfile

    repo_models = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                               "models")
    files = {name: os.path.join(repo_models, name) for name in CLI_FIXED_MODELS}
    files.update(write_cli_models(seed, workdir))
    argvs = {cid: ["bounds", path, "--json"] for cid, path in files.items()}
    argvs["paper-suite"] = ["paper-suite", "--json"]
    order = sorted(argvs)
    random.Random(seed).shuffle(order)
    cases = [Case(cid, lambda argv=argvs[cid]: run_cli(argv)) for cid in order]
    rules_only = [
        _rules_only(engine, lambda path=path: modelfile.load_model_file(path).bundle)
        for path in files.values()
    ]
    return Workload(cases, {"files": files}, rules_only)


MAKE_WORKLOAD = {
    "tc-ladder": build_tc_ladder,
    "rules-wide": build_rules_wide,
    "cli-models": build_cli_models,
}
