#!/usr/bin/env python3
"""secatm benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the program is imported from its ``src``.
Each workload runs its seeded cases in this one process and thread, as a
closed loop with a single caller: set-up, one warm-up pass, then timed
passes until ``--seconds`` have gone by since the first of them began.
Outputs are checked after each pass, outside its timing.

``--trace 0`` reports the end-to-end metrics (set-up time, median pass
time, peak RSS).  Set-up is timed again, its result thrown away, twice
before the warm-up pass and twice after each timed pass, so that its samples
spread over the whole run like the passes do; ``setup_s`` is their median.

Times are corrected for the speed of the host.  On a shared host the same
work can take twice as long from one second to the next, and that swing is far wider than any bound a benchmark could
hold.  So a short pure-Python loop (``calibrate``) is timed right before and
right after every case and every set-up, and each wall time is scaled by
``REF_CALIBRATION_S`` over the mean of the two loop times around it:
``setup_s`` and ``pass_s`` are seconds at the reference speed, the speed at
which the loop takes ``REF_CALIBRATION_S``.  The uncorrected wall times are
printed beside them.

``--trace 1`` alternates untraced passes with passes traced by
``tracer.py``, each pair followed by a rules-only run, and then runs one
more pass that only counts narrowing calls; it reports the per-layer metrics
and the tracing overhead, and writes the spans of the first traced pass to
``perfbench/out/``.  The last line of stdout is one JSON object; the exit
code is 1 when any output failed its check.  ``--workload all`` runs each
workload in a process of its own and prints a summary.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import cases
import checker
import tracer as tr

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_PER_PASS = 2
# time of one ``calibrate()`` on the reference host (2-vCPU Xeon VM,
# CPython 3.11) in its fast state; corrected times are seconds at this speed
REF_CALIBRATION_S = 0.019
MODULES = ["secatm", "secatm.algebra", "secatm.cli", "secatm.cuplength",
           "secatm.engine", "secatm.goldens", "secatm.linalg", "secatm.modelfile",
           "secatm.tables"]

# every rule id the engine narrows with, one counter each
RULE_IDS = [
    "conn_vanishing", "literature", "homotopic_zero", "dim_conn_cap", "cup_length",
    "monotone_m", "classical_cap", "secat_le_cat_base", "secat_eq_cat_contractible",
    "dim_recovery", "skeletal_cap", "stabilize", "pi_vanishing_eq", "product_subadd",
    "dm_le_cat_domain", "dm_le_tc_codomain", "hdm_le_dm", "triangle", "cat_le_tc",
    "tc_le_2cat", "tc_le_cat_square", "h_space_eq", "const_vs_identity",
    "const_pair_cap",
]
COUNTERS = ["cuplength.calls", "algebra.mul_vectors_calls", "linalg.echelon_inserts",
            "linalg.echelon_rank_grew", "engine.lower_tables", "tables.narrow_calls",
            "tables.narrowed"] + [f"tables.narrowed.{r}" for r in RULE_IDS]
# per-layer time metric -> (span name, "total" or "self")
LAYER_TIMES = {
    "cuplength.capped_s": ("cuplength.capped", "total"),
    "algebra.tensor_square_s": ("algebra.tensor_square", "total"),
    "algebra.kernel_s": ("algebra.kernel", "total"),
    "algebra.validate_s": ("algebra.validate", "total"),
    "engine.compute_tables_s": ("engine.compute_tables", "total"),
    "engine.self_s": ("engine.compute_tables", "self"),
    "tables.render_s": ("tables.render", "total"),
    "modelfile.load_s": ("modelfile.load", "total"),
    "cli.main_s": ("cli.main", "total"),
    "goldens.run_suite_s": ("goldens.run_suite", "total"),
}


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now: rational sums, dict and
    list work, and a modular row reduction, the kinds of work the program
    does.  It calls nothing of the program and runs with the collector off,
    so a change to the program cannot change its time."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, counts = Fraction(0), {}
        for i in range(4000):
            acc += Fraction(i % 7, i % 5 + 1)
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + i
            sorted([j * i % 11 for j in range(8)])
        p, n = 10007, 20
        for rep in range(24):
            rows = [[(i * 31 + j * 17 + rep) % p for j in range(n)] for i in range(n)]
            r = 0
            for c in range(n):
                piv = next((i for i in range(r, n) if rows[i][c]), None)
                if piv is None:
                    continue
                rows[r], rows[piv] = rows[piv], rows[r]
                inv = pow(rows[r][c], p - 2, p)
                rows[r] = [v * inv % p for v in rows[r]]
                for i in range(n):
                    if i != r and rows[i][c]:
                        f = rows[i][c]
                        rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
                r += 1
        return time.perf_counter() - t0
    finally:
        gc.enable()


def corrected(wall_s: float, before_s: float, after_s: float) -> float:
    """A wall time in seconds at the reference speed, from the calibration
    times measured right before and right after it."""
    return wall_s * REF_CALIBRATION_S / ((before_s + after_s) / 2)


def import_secatm() -> dict:
    """(Re-)import the package from this checkout's ``src``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "secatm" or n.startswith("secatm.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(name) for name in MODULES}
    where = os.path.dirname(os.path.abspath(mods["secatm"].__file__))
    if where != os.path.join(SRC, "secatm"):
        raise ImportError(f"secatm was imported from {where}, not from {SRC}")
    return mods


def setup(workload: str, seed: int, workdir: str):
    """Import and input generation; returns the modules, the workload and
    the time they took as (seconds at the reference speed, wall seconds)."""
    before = calibrate()
    t0 = time.perf_counter()
    mods = import_secatm()
    wl = cases.MAKE_WORKLOAD[workload](seed, workdir)
    wall_s = time.perf_counter() - t0
    return mods, wl, (corrected(wall_s, before, calibrate()), wall_s)


def discarded_setup(workload: str, seed: int, workdir: str) -> tuple[float, float]:
    """One more timed set-up whose result is thrown away.  The modules in
    use are put back, so the passes go on with the same warm objects."""
    def ours():
        return [n for n in sys.modules if n == "secatm" or n.startswith("secatm.")]

    kept = {name: sys.modules[name] for name in ours()}
    try:
        return setup(workload, seed, workdir)[2]
    finally:
        for name in ours():
            del sys.modules[name]
        sys.modules.update(kept)
        shutil.rmtree(workdir, ignore_errors=True)


class Runner:
    def __init__(self, wl, check):
        self.wl = wl
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_pass(self, tracer=None) -> tuple[float, float, dict, dict]:
        """One pass over every case.  Returns the pass time at the reference
        speed and on the wall clock, then the time of each case in the same
        two ways.  The calibration loop runs between cases, and outputs are
        checked after the pass, both outside the case clocks."""
        gc.collect()
        results = []
        if tracer:
            tracer.install()
        try:
            cal = calibrate()
            for case in self.wl.cases:
                root = tracer.begin_case(case.id) if tracer else None
                t0 = time.perf_counter()
                try:
                    out, exc = case.run(), None
                except Exception as e:  # a failed case is counted, not fatal
                    out, exc = None, e
                wall_s = time.perf_counter() - t0
                if tracer:
                    tracer.end_case(root)
                after = calibrate()
                results.append((case.id, out, exc, wall_s, corrected(wall_s, cal, after)))
                cal = after
        finally:
            if tracer:
                tracer.uninstall()
        for cid, out, exc, _, _ in results:
            self.attempted += 1
            try:
                errors = [f"raised {exc!r}"] if exc else self.check.check(cid, out)
            except Exception as e:  # an unreadable output is a failure too
                errors = [f"checker raised {e!r}"]
            if errors:
                self.failed += 1
                self.errors += [f"{cid}: {e}" for e in errors]
        return (sum(r[4] for r in results), sum(r[3] for r in results),
                {r[0]: r[4] for r in results}, {r[0]: r[3] for r in results})


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"no percentile has 10 samples beyond it (n={n})"
    p = math.floor(100 * (n - 10) / n)
    value = sorted(values)[max(0, math.ceil(p * n / 100) - 1)]
    return f"p{p} {value:.4f} s (n={n})"


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(runner, first_setup, resetup, seconds) -> dict:
    setups = [first_setup] + [resetup() for _ in range(SETUP_PER_PASS)]
    runner.run_pass()  # warm-up
    times, walls, case_runs = [], [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        pass_s, wall_s, case_s, _ = runner.run_pass()
        times.append(pass_s)
        walls.append(wall_s)
        case_runs.append(case_s)
        setups.extend(resetup() for _ in range(SETUP_PER_PASS))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pass_s = statistics.median(times)
    setup_s = statistics.median(s for s, _ in setups)
    print(f"  setup_s      {setup_s:.4f} s median of {len(setups)}; "
          f"wall clock {statistics.median(w for _, w in setups):.4f} s")
    print(f"  pass_s       {pass_s:.4f} s median; {tail(times)}; "
          f"passes {' '.join(f'{t:.3f}' for t in times)}")
    print(f"  wall clock   {statistics.median(walls):.4f} s median; {tail(walls)}; "
          f"passes {' '.join(f'{t:.3f}' for t in walls)}")
    print(f"  fail_ratio   {runner.failed / runner.attempted:.4f} "
          f"({runner.failed}/{runner.attempted} cases)")
    print(f"  peak_rss_mb  {rss_mb:.1f} MB")
    print("  case medians " + " ".join(
        f"{cid}={statistics.median(c[cid] for c in case_runs):.4f}" for cid in case_runs[0]))
    return {"setup_s": metric(setup_s, "s"), "pass_s": metric(pass_s, "s"),
            "peak_rss_mb": metric(rss_mb, "MB")}


def per_pass_layers(tracer) -> tuple[dict, dict]:
    """Time metrics and counters of one traced pass."""
    times = tr.layer_times(tracer.spans)
    layer = {name: times.get(span, {}).get(kind, 0.0)
             for name, (span, kind) in LAYER_TIMES.items()}
    return layer, dict(tracer.counts)


def traced(runner, mods, wl, seconds, workload, seed) -> dict:
    runner.run_pass()  # warm-up
    tracer = tr.Tracer(mods)
    layer_runs, count_runs = [], []
    first_spans, first_walls = [], {}
    span_problems: list[str] = []
    worst_gap = 0.0

    def collect(case_s):
        # the spans of each case, self times summed, against the case wall
        # time the runner measured on its own clock
        nonlocal worst_gap
        problems, per_case = tr.span_errors(tracer.spans)
        span_problems.extend(problems)
        worst_gap = max([worst_gap] + [abs(per_case.get(c, 0.0) - t) for c, t in case_s.items()])
        layer, counts = per_pass_layers(tracer)
        layer_runs.append(layer)
        count_runs.append(counts)
        if not first_spans:
            first_spans.extend(tracer.spans)
            first_walls.update(case_s)
        tracer.reset()

    # Untraced and traced passes alternate, so that the two passes of a pair
    # see the host in the same state; the overhead is taken pair by pair.
    case_runs: list[dict] = []
    untraced, traced_times, rules_only = [], [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        pass_s, _, case_s, _ = runner.run_pass()
        untraced.append(pass_s)
        case_runs.append(case_s)
        pass_s, _, _, case_wall_s = runner.run_pass(tracer)
        traced_times.append(pass_s)
        collect(case_wall_s)
        rules_only.append(sum(fn() for fn in wl.rules_only))
    tracer.count_narrow_calls = True
    runner.run_pass(tracer)
    narrow_calls = tracer.counts["tables.narrow_calls"]

    if any(c != count_runs[0] for c in count_runs):
        runner.errors.append("counters differ between traced passes")
    runner.errors += span_problems[:5]
    counts = count_runs[0]
    out = {name: statistics.median(r[name] for r in layer_runs) for name in LAYER_TIMES}
    for name in COUNTERS:
        out[name] = counts.get(name, 0)
    out["tables.narrow_calls"] = narrow_calls
    unlisted = sorted(k for k in counts if k.startswith("tables.narrowed.") and k not in out)
    if unlisted:
        print(f"  rule ids without a metric: {', '.join(unlisted)}")
    calls, caps = counts.get("cuplength.calls", 0), counts.get("cuplength.distinct_caps", 0)
    out["cuplength.calls_per_cap"] = calls / caps if caps else 0.0
    inserts = counts.get("linalg.echelon_inserts", 0)
    out["linalg.insert_useful_ratio"] = (
        counts.get("linalg.echelon_rank_grew", 0) / inserts if inserts else 0.0)
    targeted = counts.get("engine.targeted_tables", 0)
    out["engine.lower_closure_ratio"] = (
        counts.get("engine.lower_tables", 0) / targeted if targeted else 0.0)
    out["engine.rules_only_s"] = statistics.median(rules_only)
    if "t4q" in case_runs[0]:
        out["domains.q_over_f2_ratio"] = (statistics.median(c["t4q"] for c in case_runs)
                                          / statistics.median(c["t4f2"] for c in case_runs))
    else:
        out["domains.q_over_f2_ratio"] = 0.0
    pairs = list(zip(untraced, traced_times))
    out["trace.untraced_pass_s"] = statistics.median(untraced)
    out["trace.pass_s"] = statistics.median(traced_times)
    out["trace.overhead_s"] = statistics.median(t - u for u, t in pairs)
    out["trace.overhead_ratio"] = statistics.median((t - u) / u for u, t in pairs)
    out["trace.span_sum_gap_s"] = worst_gap

    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
    with open(span_file, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "fields": ["id", "name", "start", "end", "parent", "case"],
                   "spans": first_spans, "case_wall_s": first_walls}, fh)

    self_by_name = tr.layer_times(first_spans)
    print(f"  {len(pairs)} pairs of untraced and traced passes; overhead "
          f"{out['trace.overhead_s']:+.4f} s per pass "
          f"({100 * out['trace.overhead_ratio']:+.1f}%), medians over the pairs")
    print(f"  spans: {len(first_spans)} in {os.path.relpath(span_file, ROOT)}; "
          f"self times sum to case wall times within {worst_gap:.2e} s")
    print("  self time per span (first traced pass):")
    for name, row in sorted(self_by_name.items(), key=lambda kv: -kv[1]["self"]):
        print(f"    {name:<24} self {row['self']:9.4f} s   total {row['total']:9.4f} s")
    print("  per-layer metrics:")
    for name in sorted(out):
        print(f"    {name:<40} {out[name]}")
    return {name: metric(value, unit_of(name)) for name, value in out.items()}


def unit_of(name: str) -> str:
    if name in COUNTERS:
        return "count"
    return "s" if name.endswith("_s") else "1"


def run_one(args) -> int:
    workdir = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    spare_dir = workdir + "-setup"
    try:
        try:
            mods, wl, first_setup = setup(args.workload, args.seed, workdir)
            check = checker.Checker(args.workload, wl.context)
        except (ImportError, OSError) as e:
            print(f"error: cannot set up {args.workload}: {e}", file=sys.stderr)
            return 1
        runner = Runner(wl, check)
        print(f"workload {args.workload} seed {args.seed}: {len(wl.cases)} cases per pass"
              f"{', traced' if args.trace else ''}")
        if args.trace:
            metrics = traced(runner, mods, wl, args.seconds, args.workload, args.seed)
        else:
            metrics = end_to_end(
                runner, first_setup,
                lambda: discarded_setup(args.workload, args.seed, spare_dir), args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(spare_dir, ignore_errors=True)
    for line in runner.errors[:20]:
        print(f"  FAIL {line}")
    correct = runner.failed == 0 and not runner.errors
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    rows = []
    for name in cases.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            rows.append((name, json.loads(lines[-1])))
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: exit code {proc.returncode}, no result")
            return 1
    if not args.trace:
        print(f"\n{'workload':<12} {'setup_s':>9} {'pass_s':>9} {'fail_ratio':>11} "
              f"{'peak_rss_mb':>12}")
        for name, r in rows:
            m = r["metrics"]
            print(f"{name:<12} {m['setup_s']['value']:9.4f} {m['pass_s']['value']:9.4f} "
                  f"{r['failed'] / r['attempted']:11.4f} {m['peak_rss_mb']['value']:12.1f}")
    ok = all(r["correct"] for _, r in rows)
    print(json.dumps({"correct": ok, "workloads": dict(rows)}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["tc-ladder", "rules-wide", "cli-models", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
