#!/usr/bin/env python3
"""Time tc and cat of growing spaces, and their validation, one rung per
subprocess.

    python scripts/size_ladder.py [--quick]

The rungs are tc of RP^n, of the orientable surfaces Sigma_g, of the
non-orientable surfaces N_h, of the tori T^k, of CP^n and of the spheres
S^n, and cat of T^k over Q and over Z (``cat-t<k>z``) and of S^1 x S^2 x
S^3 x S^4, past the sizes the model files accept.  Every other rung has its
generators in one degree; those of S^1 x ... x S^4 lie in four, so the
cup-length DP reads each cap off a different prefix of them.  The square of S^n has 4 classes in 2n + 1 degrees, so
almost all of its Kunneth blocks are empty.  RP^n and N_h are over F2:
RP^n has one class in each degree, and N_h has h classes in degree 1, so
the square of N_h is wide in degree 2.  The ``tc-sigma<g>h`` rungs take
Sigma_g over Q with a_i b_i = w/2, isomorphic to H*(Sigma_g; Q), so the
cup-length DP multiplies fractional constants.  The ``validate-*`` rungs
time ``GradedAlgebra.validate`` on a plain copy of the table of RP^n or
T^k, built as a model file's algebras are
(``GradedAlgebra(coeff, names, table)``).
Each rung runs in a fresh interpreter of its own, which builds the space
with the built-in constructors and runs ``compute_tables`` with the one
table as target, or builds the validated copy.  A line per rung gives the
seconds of the build and the run (of the validated copy alone), the
child's peak RSS (the interpreter and the import included), the classical
interval and the classical lower bound of a second, untimed run without
literature values, which is the cup-length bound (``valid`` on a
validation rung); or ``timeout`` when the child ran past ``TIMEOUT_S``
seconds.

Where the classical value is known on a rung (tc(T^k) = k, tc(Sigma_g) = 4
for g >= 2, tc(CP^n) = 2n, tc(S^n) = 1 for odd n and 2 for even n (Farber
2003), cat(T^k) = k over Q and over Z and cat(S^1 x ... x S^4) = 4
(Cornea, Lupton, Oprea and Tanre 2003)) the interval must be exactly that value and the lower bound without
literature must reach it; the exit code is 1 when they do not or a rung
failed.  ``--quick``
runs the small rungs only, in a few seconds in all.  Standard library
only; the package is imported from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TIMEOUT_S = 300  # seconds per rung, well above the slowest (tc of Sigma_48)

# name -> (invariant, the space as text, its constructor given the
# secatm.spaces module, its known classical value)
RUNGS = {}


def half_surface(sp, g):
    """Sigma_g with a_i b_i = w/2: fractional constants, the same tc."""
    from dataclasses import replace

    from secatm.algebra import make_algebra
    from secatm.domains import Q

    names = {1: [f"{x}{i}" for i in range(1, g + 1) for x in "ab"], 2: ["w"]}
    products = [(f"a{i}", f"b{i}", {"w": "1/2"}) for i in range(1, g + 1)]
    return replace(sp.orientable_surface(g),
                   algebra=make_algebra(Q, names, products, validate=False))


def integral_torus(sp, k):
    """T^k over Z: its spans are taken over Q and read out as primitive
    integer rows."""
    from secatm.domains import Z

    return sp.product([sp.sphere(1, Z)] * k)


for n in (16, 32, 64, 128):
    RUNGS[f"tc-rp{n}"] = ("tc", f"RP^{n}", lambda sp, n=n: sp.real_projective(n), None)
for g in (2, 4, 8, 16, 24, 32, 48):
    RUNGS[f"tc-sigma{g}"] = ("tc", f"Sigma_{g}", lambda sp, g=g: sp.orientable_surface(g), 4)
for g in (4, 16, 32):
    RUNGS[f"tc-sigma{g}h"] = ("tc", f"Sigma_{g} w/2", lambda sp, g=g: half_surface(sp, g), 4)
# the constructor records tc(N_h) = 4, but the zero-divisor cup-length over
# F2 is 3, so no known value is checked on these rungs
for h in (8, 16, 32, 48):
    RUNGS[f"tc-n{h}"] = ("tc", f"N_{h}", lambda sp, h=h: sp.nonorientable_surface(h), None)
for k in (2, 3, 4, 5, 6, 7):
    RUNGS[f"tc-t{k}"] = ("tc", f"T^{k}", lambda sp, k=k: sp.product([sp.sphere(1)] * k), k)
for n in (2, 4, 8, 16, 32):
    RUNGS[f"tc-cp{n}"] = ("tc", f"CP^{n}", lambda sp, n=n: sp.complex_projective(n), 2 * n)
for n in (63, 64, 127, 128):
    RUNGS[f"tc-s{n}"] = ("tc", f"S^{n}", lambda sp, n=n: sp.sphere(n), 2 - n % 2)
for k in (4, 6, 8, 10):
    RUNGS[f"cat-t{k}"] = ("cat", f"T^{k}", lambda sp, k=k: sp.product([sp.sphere(1)] * k), k)
for k in (4, 6, 8, 10):
    RUNGS[f"cat-t{k}z"] = ("cat", f"T^{k} over Z", lambda sp, k=k: integral_torus(sp, k), k)
# generators in four degrees, so one DP reads a different prefix of them at
# each cap
RUNGS["cat-s1234"] = ("cat", "S^1x..xS^4",
                      lambda sp: sp.product([sp.sphere(n) for n in (1, 2, 3, 4)]), 4)
for n in (64, 128):
    RUNGS[f"validate-rp{n}"] = ("validate", f"RP^{n}", lambda sp, n=n: sp.real_projective(n), None)
for k in (8, 10):
    RUNGS[f"validate-t{k}"] = ("validate", f"T^{k}",
                               lambda sp, k=k: sp.product([sp.sphere(1)] * k), None)

QUICK = ["tc-rp16", "tc-sigma2", "tc-sigma4", "tc-sigma4h", "tc-n8", "tc-t2", "tc-t3",
         "tc-t4", "tc-cp2", "tc-cp4", "tc-s64", "cat-t4", "cat-t6", "cat-t4z",
         "cat-s1234", "validate-rp64", "validate-t8"]


def run_rung(name: str) -> dict:
    """Build and compute one rung in this process; its figures."""
    sys.path.insert(0, SRC)
    from secatm import spaces
    from secatm.engine import Bundle, compute_tables
    from secatm.tables import INF

    inv, _, build, _ = RUNGS[name]
    if inv == "validate":
        from secatm.algebra import GradedAlgebra

        A = build(spaces).algebra
        coeff, names, table = A.coeff, A.names, A.table
        t0 = time.perf_counter()
        GradedAlgebra(coeff, names, table)
        seconds = time.perf_counter() - t0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {"seconds": seconds, "rss_mb": rss_mb}
    t0 = time.perf_counter()
    bundle = Bundle()
    bundle.add_space(name, build(spaces))
    table = compute_tables(bundle, targets=[(inv, name)])[(inv, name)]
    seconds = time.perf_counter() - t0
    interval = list(table.interval(INF).as_pair())
    del table
    bare = compute_tables(bundle, targets=[(inv, name)], use_literature=False)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"seconds": seconds, "rss_mb": rss_mb, "interval": interval,
            "cup_length": bare[(inv, name)].lo(INF)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true", help="the small rungs only")
    parser.add_argument("--child", choices=RUNGS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(run_rung(args.child)))
        return 0
    failed = 0
    print(f"{'rung':<14} {'invariant':<16} {'seconds':>9} {'peak MB':>8}  "
          f"{'interval':<12} no-literature lower bound")
    for name in QUICK if args.quick else RUNGS:
        inv, space, _, known = RUNGS[name]
        what = f"{inv}({space})"
        try:
            child = subprocess.run([sys.executable, __file__, "--child", name],
                                   capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"{name:<14} {what:<16} {'timeout':>9}", flush=True)
            failed += 1
            continue
        if child.returncode:
            print(f"{name:<14} {what:<16} {'error':>9}\n{child.stderr}", flush=True)
            failed += 1
            continue
        out = json.loads(child.stdout.splitlines()[-1])
        figures = f"{name:<14} {what:<16} {out['seconds']:9.3f} {out['rss_mb']:8.1f}  "
        if inv == "validate":
            print(f"{figures}valid", flush=True)
            continue
        lo, hi = out["interval"]
        wrong = known is not None and (lo, hi, out["cup_length"]) != (known,) * 3
        failed += wrong
        note = f"  expected {known}" if wrong else ""
        print(f"{figures}{f'[{lo}, {hi}]':<12} {out['cup_length']}{note}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
