"""Output checker, run outside the timed passes.

A case fails if it raised, exited nonzero, reported an interval that differs
from the stored reference, or carries a ``cup_length`` certificate that does
not re-verify at its cap.  References live in ``reference/`` and are written
once by ``make_reference.py``.
"""

from __future__ import annotations

import json
import os
import re

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
_CAP = re.compile(r"degree <= (\d+)")


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload: str) -> dict:
    with open(reference_path(workload), encoding="utf-8") as fh:
        return json.load(fh)


# -- interval encodings --------------------------------------------------------

def table_rows(table) -> list:
    """[[m, lo, hi], ...] over the whole index, m = "inf" for the classical
    column."""
    return [[m, table.lo(m), table.hi(m)] for m in table.index]


def encode_runs(rows) -> list:
    """Run-length form of ``table_rows``: [[m_from, m_to, lo, hi], ...]."""
    runs = []
    for m, lo, hi in rows:
        if runs and m != "inf" and runs[-1][1] != "inf" and runs[-1][2:] == [lo, hi] \
                and runs[-1][1] == m - 1:
            runs[-1][1] = m
        else:
            runs.append([m, m, lo, hi])
    return runs


def decode_runs(runs) -> list:
    rows = []
    for a, b, lo, hi in runs:
        if a == "inf":
            rows.append(["inf", lo, hi])
        else:
            rows.extend([m, lo, hi] for m in range(a, b + 1))
    return rows


def _diff_rows(label, got, want) -> list[str]:
    if got == want:
        return []
    want_map = {str(m): (lo, hi) for m, lo, hi in want}
    got_map = {str(m): (lo, hi) for m, lo, hi in got}
    bad = [m for m in sorted(set(want_map) | set(got_map), key=str)
           if want_map.get(m) != got_map.get(m)]
    m = bad[0]
    return [f"{label} at m={m}: got {got_map.get(m)}, reference {want_map.get(m)}"
            f" ({len(bad)} rows differ)"]


# -- certificates ----------------------------------------------------------------

def _cap_of(detail: str) -> int | None:
    found = _CAP.search(detail)
    return int(found.group(1)) if found else None


def _verify(label, value, cert, cap) -> list[str]:
    if cap is None:
        return [f"{label}: cup_length event names no cap"]
    if len(cert) != value:
        return [f"{label}: certificate has {len(cert)} factors for value {value}"]
    if not cert.verify(cap=cap):
        return [f"{label}: certificate does not re-verify at cap {cap}"]
    return []


class Checker:
    """Judges the outputs of one workload.  A certificate already verified
    (same case, table, cap, value and factors) is not verified again."""

    def __init__(self, workload: str, context: dict):
        self.workload = workload
        self.context = context
        self.ref = load_reference(workload)
        self._verified: set = set()
        self._cli_algebras: dict = {}

    def check(self, case_id: str, output) -> list[str]:
        return getattr(self, "_check_" + self.workload.replace("-", "_"))(case_id, output)

    # in-process tables ------------------------------------------------------
    def _table_certificates(self, case_id, tables) -> list[str]:
        errors = []
        content: dict = {}  # one certificate object backs many rows
        for (inv, name), table in tables.items():
            for m in table.index:
                for ev in table.events[m]:
                    if ev.rule != "cup_length":
                        continue
                    cert, cap = ev.certificate, _cap_of(ev.detail)
                    if id(cert) not in content:
                        content[id(cert)] = (tuple(cert.factor_strings()),
                                             cert.product.format())
                    key = (case_id, inv, name, cap, ev.value, content[id(cert)])
                    if key in self._verified:
                        continue
                    found = _verify(f"{inv}[{name}] m={m}", ev.value, cert, cap)
                    if not found:
                        self._verified.add(key)
                    errors += found
        return errors

    def _check_tc_ladder(self, case_id, tables) -> list[str]:
        inv, name = self.context["targets"][case_id]
        want = self.ref["cases"][case_id]["rows"]
        errors = _diff_rows(f"{inv}[{name}]", table_rows(tables[(inv, name)]), want)
        return errors + self._table_certificates(case_id, tables)

    def _check_rules_wide(self, case_id, tables) -> list[str]:
        ref = self.ref["tables"][case_id]
        want = {k for item in self.context["items"] for k in self.ref["items"][item]}
        got_keys = {f"{inv}|{name}" for inv, name in tables}
        errors = [f"{key}: table missing" for key in sorted(want - got_keys)]
        for (inv, name), table in tables.items():
            key = f"{inv}|{name}"
            if key not in want:
                errors.append(f"{key}: no drawn item produces this table")
                continue
            got = encode_runs(table_rows(table))
            if got != ref[key]:
                errors += _diff_rows(key, decode_runs(got), decode_runs(ref[key]))
        return errors + self._table_certificates(case_id, tables)

    # command line -------------------------------------------------------------
    def _check_cli_models(self, case_id, output) -> list[str]:
        code, stdout = output
        if code != 0:
            return [f"exit code {code}"]
        try:
            payload = json.loads(stdout)
        except json.JSONDecodeError as e:
            return [f"stdout is not JSON: {e}"]
        if case_id == "paper-suite":
            return [] if payload.get("ok") is True else ["paper-suite is not ok"]
        tables = payload if isinstance(payload, list) else [payload]
        want = self.ref["files"][case_id]
        got = {f"{t['invariant']}|{t['target']}": t for t in tables}
        errors = []
        if sorted(got) != sorted(want):
            errors.append(f"tables {sorted(got)}, reference {sorted(want)}")
        for key, table in got.items():
            rows = [[e["m"] if e["m"] == "inf" else int(e["m"]), e["lo"], e["hi"]]
                    for e in table["entries"]]
            errors += _diff_rows(key, rows, want.get(key, []))
            errors += self._json_certificates(case_id, table)
        return errors

    def _json_certificates(self, case_id, table) -> list[str]:
        from secatm.cuplength import CupLengthCertificate

        inv, target = table["invariant"], table["target"]
        errors = []
        for entry in table["entries"]:
            for ev in entry["provenance"]:
                if ev["rule"] != "cup_length":
                    continue
                data = ev["certificate"]
                cap = _cap_of(ev["detail"])
                key = (case_id, inv, target, cap, ev["value"], tuple(data["factors"]),
                       data["product"])
                if key in self._verified:
                    continue
                label = f"{inv}[{target}] m={entry['m']}"
                try:
                    alg = self._cli_algebra(case_id, inv, target)
                    cert = CupLengthCertificate(
                        factors=[parse_element(alg, s) for s in data["factors"]],
                        product=parse_element(alg, data["product"]),
                    )
                except (KeyError, ValueError) as e:
                    errors.append(f"{label}: unreadable certificate: {e}")
                    continue
                found = _verify(label, ev["value"], cert, cap)
                if not found:
                    self._verified.add(key)
                errors += found
        return errors

    def _cli_algebra(self, case_id, inv, target):
        """The algebra a table's certificates live in, from the model file."""
        key = (case_id, inv, target)
        if key not in self._cli_algebras:
            from secatm.algebra import tensor_square
            from secatm.modelfile import load_model_file

            bundle = load_model_file(self.context["files"][case_id]).bundle
            if inv == "cat":
                alg = bundle.spaces[target].algebra
            elif inv == "tc":
                alg = tensor_square(bundle.spaces[target].algebra)[0]
            elif inv == "secat":
                alg = bundle.fibrations[target].base.algebra
            else:  # dm and hdm certificates live in the domain
                alg = bundle.map_pairs[target].domain.algebra
            self._cli_algebras[key] = alg
        return self._cli_algebras[key]


_TERM_SPLIT = re.compile(r" ([+-]) ")


def parse_element(alg, text: str):
    """Inverse of ``Element.format``: "x + 2*y - z" back to an element.
    An unknown basis name raises KeyError."""
    if text == "0":
        return alg.zero_element()
    pieces = _TERM_SPLIT.split(text)
    terms = [(1, pieces[0])] + [(1 if s == "+" else -1, t)
                                for s, t in zip(pieces[1::2], pieces[2::2])]
    dom = alg.coeff
    combo: dict = {}
    for sign, term in terms:
        if term.startswith("-"):
            sign, term = -sign, term[1:]
        coeff, star, name = term.rpartition("*")
        c = dom.parse_scalar(coeff if dom.kind == "rationals" else int(coeff)) \
            if star else dom.one()
        if sign < 0:
            c = dom.neg(c)
        combo[name] = dom.add(combo.get(name, dom.zero()), c)
    return alg.element(combo)
