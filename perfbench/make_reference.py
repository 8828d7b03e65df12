"""Write the reference intervals the checker compares against.

Run once, from the root of a checkout, at the commit whose answers are taken
as correct:

    python3 perfbench/make_reference.py

References are stored per catalogue item or pool model, never per seed, so
they hold for every ``--seed``.  Each ``rules-wide`` item is computed in a
bundle of its own, which also checks that the items of a shared bundle do
not influence each other.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import cases  # noqa: E402
import checker  # noqa: E402


def tc_ladder() -> dict:
    from secatm import engine

    out = {}
    for cid, inv, build in cases._tc_ladder_specs():
        bundle = engine.Bundle()
        bundle.add_space(cid, build())
        tables = engine.compute_tables(bundle, targets=[(inv, cid)])
        out[cid] = {"invariant": inv, "rows": checker.table_rows(tables[(inv, cid)])}
    return {"cases": out}


def rules_wide() -> dict:
    from secatm import engine

    cats = cases.rules_wide_catalogue()
    out = {"literature": {}, "no-literature": {}}
    items = {}  # catalogue item -> the table keys it produces
    for cat in cats.values():
        for item, build in sorted(cat.items()):
            for lit, label in ((True, "literature"), (False, "no-literature")):
                bundle = engine.Bundle()
                cases.add_items(bundle, {item: build}, [item])
                tables = engine.compute_tables(
                    bundle, max_m=cases.RULES_WIDE_M, use_literature=lit)
                keys = sorted(f"{inv}|{name}" for inv, name in tables)
                if items.setdefault(item, keys) != keys:
                    raise SystemExit(f"{item}: literature values change the set of tables")
                for (inv, name), table in tables.items():
                    out[label][f"{inv}|{name}"] = checker.encode_runs(
                        checker.table_rows(table))
    return {"max_m": cases.RULES_WIDE_M, "items": items, "tables": out}


def cli_models() -> dict:
    workdir = os.path.join(HERE, "work", f"reference-{os.getpid()}")
    try:
        wl = cases.build_cli_models(0, workdir)
        files = {}
        for case in wl.cases:
            code, stdout = case.run()
            if code != 0:
                raise SystemExit(f"{case.id}: exit code {code}")
            payload = json.loads(stdout)
            if case.id == "paper-suite":
                if payload["ok"] is not True:
                    raise SystemExit("paper-suite is not ok")
                continue
            tables = payload if isinstance(payload, list) else [payload]
            files[case.id] = {
                f"{t['invariant']}|{t['target']}": [
                    [e["m"] if e["m"] == "inf" else int(e["m"]), e["lo"], e["hi"]]
                    for e in t["entries"]
                ]
                for t in tables
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"files": files}


def main() -> None:
    os.makedirs(checker.REFERENCE_DIR, exist_ok=True)
    for name, make in (("tc-ladder", tc_ladder), ("rules-wide", rules_wide),
                       ("cli-models", cli_models)):
        with open(checker.reference_path(name), "w", encoding="utf-8") as fh:
            json.dump(make(), fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {checker.reference_path(name)}")


if __name__ == "__main__":
    main()
