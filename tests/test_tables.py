import gc
import json
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from secatm.algebra import Element
from secatm.cuplength import CupLengthCertificate
from secatm.engine import Bundle, compute_tables
from secatm.spaces import product, sphere
from secatm.tables import (
    INF,
    BoundTable,
    InconsistentModel,
    Interval,
    render_text,
    table_from_json,
    table_to_json,
    write_json,
)


class TestInterval:
    def test_format(self):
        assert Interval(2, 2).format() == "= 2"
        assert Interval(1, 3).format() == "[1, 3]"
        assert Interval(1, None).format() == "[1, inf)"

    def test_exactness(self):
        assert Interval(4, 4).is_exact()
        assert not Interval(0, None).is_exact()


class TestBoundTable:
    def test_narrowing_only(self):
        t = BoundTable("cat", "x", 3)
        assert t.raise_lo(1, 2, "r", "d")
        assert not t.raise_lo(1, 1, "r", "d")  # weaker: no event
        assert t.lower_hi(1, 5, "r", "d")
        assert not t.lower_hi(1, 7, "r", "d")
        assert not t.lower_hi(1, None, "r", "d")
        assert t.interval(1).as_pair() == (2, 5)
        assert len(t.events[1]) == 2

    def test_index_includes_classical_column(self):
        t = BoundTable("tc", "x", 2)
        assert t.index == [1, 2, INF]

    def test_inconsistency_carries_both_chains(self):
        t = BoundTable("cat", "x", 2)
        t.raise_lo(1, 3, "lower_rule", "a witness")
        with pytest.raises(InconsistentModel) as err:
            t.lower_hi(1, 2, "upper_rule", "an axiom")
        msg = str(err.value)
        assert "lower_rule" in msg and "upper_rule" in msg
        assert err.value.m == 1 and err.value.invariant == "cat"


class TestStabilizedTable:
    """A table with dimension parameter d stores m < d and inf; every entry
    m >= d is the inf entry."""

    def test_only_rows_below_the_dimension_are_stored(self):
        t = BoundTable("cat", "x", 6, dim=3)
        assert t.stored == [1, 2, INF] and list(t.events) == [1, 2, INF]
        assert t.index == [1, 2, 3, 4, 5, 6, INF]
        assert all(t.interval(m) is t.interval(INF) for m in (3, 4, 5, 6))
        assert t.interval(2) is not t.interval(INF)

    @pytest.mark.parametrize("dim, stored", [
        (None, [1, 2, 3, INF]), (5, [1, 2, 3, INF]), (4, [1, 2, 3, INF]),
        (3, [1, 2, INF]), (1, [INF]), (0, [INF]),
    ])
    def test_stored_rows_by_dimension(self, dim, stored):
        assert BoundTable("cat", "x", 3, dim=dim).stored == stored

    def test_narrowing_a_tail_row_narrows_inf(self):
        t = BoundTable("cat", "x", 6, dim=3)
        assert t.raise_lo(5, 2, "r", "d")
        assert t.lower_hi(4, 3, "s", "e")
        assert not t.raise_lo(6, 2, "r", "d")
        assert [(e.rule, e.value) for e in t.events[INF]] == [("r", 2), ("s", 3)]
        for m in (3, 4, 5, 6, INF):
            assert t.interval(m).as_pair() == (2, 3)
        # the rows below are at most the inf entry
        assert t.interval(2).as_pair() == (0, 3)
        assert [(e.rule, e.side, e.value) for e in t.events[2]] == [("classical_cap", "hi", 3)]

    def test_tail_rows_list_one_stabilize_event_per_narrowed_side(self):
        t = BoundTable("cat", "x", 6, dim=3)
        assert t.events[4] == []  # inf is still [0, inf)
        t.raise_lo(INF, 2, "r", "d")
        assert [(e.rule, e.side, e.value) for e in t.events[4]] == [("stabilize", "lo", 2)]
        t.lower_hi(INF, 5, "s", "e")
        events = t.events[6]
        assert [(e.rule, e.side, e.value) for e in events] == [
            ("stabilize", "lo", 2), ("stabilize", "hi", 5)]
        assert all("m=inf" in e.detail and e.certificate is None for e in events)

    def test_rows_outside_the_index_are_missing(self):
        t = BoundTable("cat", "x", 6, dim=3)
        for m in (0, 7, "7"):
            with pytest.raises(KeyError):
                t.interval(m)
            assert m not in t.events
        assert 6 in t.events and INF in t.events

    def test_a_dropped_table_is_freed_without_the_cycle_collector(self):
        # the tables of one run hold the certificates, so a reference cycle
        # would keep a pass's algebras alive until a collection
        gc.disable()
        try:
            t = BoundTable("cat", "x", 6, dim=3)
            t.raise_lo(5, 1, "r", "d")
            assert t.events[5] and list(t.events.values())
            render_text(t)
            ref = weakref.ref(t)
            del t
            assert ref() is None
        finally:
            gc.enable()

    def test_rows_for_a_range(self):
        t = BoundTable("cat", "x", 6, dim=3)
        assert t.rows_for(range(1, 3)) == [1, 2]
        assert t.rows_for(range(2, 7)) == [2, INF]
        assert t.rows_for(range(4, 6)) == [INF]
        assert t.rows_for(range(1, 1)) == []

    def test_rendering_lists_every_row(self):
        t = BoundTable("cat", "x", 5, dim=2)
        t.raise_lo(1, 1, "r", "d")
        t.raise_lo(INF, 2, "r", "d")
        t.lower_hi(INF, 2, "s", "e")
        text = render_text(t)
        for m in (1, 2, 3, 4, 5, "inf"):
            assert f"m={m} " in text
        assert text.count("= 2          stabilize\n") == 4
        data = table_to_json(t)
        assert [e["m"] for e in data["entries"]] == ["1", "2", "3", "4", "5", "inf"]
        assert [(e["lo"], e["hi"]) for e in data["entries"][1:]] == [(2, 2)] * 5
        assert {ev["rule"] for e in data["entries"][1:5] for ev in e["provenance"]} == {
            "stabilize"}
        assert table_to_json(table_from_json(data)) == data
        assert table_to_json(t, [4])["entries"] == [data["entries"][3]]


class TestRendering:
    def make(self):
        t = BoundTable("cat", "rp4", 2)
        t.raise_lo(1, 4, "cup_length", "witness")
        t.lower_hi(1, 4, "literature", "recorded value")
        t.raise_lo(2, 1, "cup_length", "witness")
        return t

    def test_text_marks_exact_rows(self):
        out = render_text(self.make())
        assert "m=1" in out and "= 4" in out
        # row 2 is at least row 1, above its own lower bound 1
        assert "  m=2    [4, inf)     monotone_m\n" in out

    def test_text_is_deterministic(self):
        assert render_text(self.make()) == render_text(self.make())

    def test_json_round_trip(self):
        t = self.make()
        data = table_to_json(t)
        back = table_from_json(data)
        assert table_to_json(back) == data

    def test_selected_rows_only(self):
        out = render_text(self.make(), ms=[1])
        assert "m=2" not in out and "m=inf" not in out


lo_ops = st.lists(
    st.tuples(st.sampled_from(["lo", "hi"]), st.integers(0, 6)), max_size=12
)


@settings(max_examples=80, deadline=None)
@given(lo_ops)
def test_intervals_only_narrow(ops):
    t = BoundTable("cat", "x", 1)
    lo, hi = 0, None
    for side, v in ops:
        try:
            if side == "lo":
                t.raise_lo(1, v, "r", "d")
            else:
                t.lower_hi(1, v, "r", "d")
        except InconsistentModel:
            # a crossing must genuinely have been requested
            assert (side == "lo" and hi is not None and v > hi) or (
                side == "hi" and v < lo
            )
            return
        lo = max(lo, v) if side == "lo" else lo
        hi = hi if side == "lo" else (v if hi is None else min(hi, v))
        assert t.lo(1) == lo and t.hi(1) == hi
        if hi is not None:
            assert lo <= hi


# ---------------------------------------------------------------------------
# the JSON writer against json.dumps(indent=2, sort_keys=True)
# ---------------------------------------------------------------------------

def written(obj) -> str:
    pieces = []
    write_json(obj, pieces.append)
    return "".join(pieces)


# every code point, lone surrogates and control characters included
json_text = st.text(st.characters(exclude_categories=()), max_size=6) | st.sampled_from(
    ["", "\x00\x1f\x7f", '"\\/\b\f\n\r\t', "\u00e9\u2603", "\ud83d\ude00", "\ud800"])
json_leaves = (st.none() | st.booleans() | st.integers() | json_text
               | st.integers(10 ** 299, 10 ** 300 - 1).flatmap(
                   lambda n: st.sampled_from([n, -n])))
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_write_json_writes_the_text_of_json_dumps(obj):
    assert written(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [
    1.5, Fraction(1, 2), {1: "a"}, {"a": 1, 2: "b"}, [{"a": [0.5]}], {"a": {(1,): 2}}, (1, 2),
])
def test_write_json_rejects_other_types(obj):
    with pytest.raises(TypeError):
        written(obj)


def test_a_certificate_shared_by_rows_is_formatted_once(monkeypatch):
    # tc of T^3 cites one certificate on every row, as _capped_values shares
    # it between the caps where the cup length stays the same
    bundle = Bundle()
    bundle.add_space("t3", product([sphere(1)] * 3))
    table = compute_tables(bundle, max_m=6)[("tc", "t3")]
    cited = [ev.certificate for m in table.index for ev in table.events[m] if ev.certificate]
    assert len(cited) > 2 and len(set(map(id, cited))) == 1
    calls = {"factor_strings": 0, "format": 0}
    for cls, name in [(CupLengthCertificate, "factor_strings"), (Element, "format")]:
        def counted(self, original=getattr(cls, name), name=name):
            calls[name] += 1
            return original(self)
        monkeypatch.setattr(cls, name, counted)
    once = {"factor_strings": 1, "format": len(cited[0].factors) + 1}

    data = table_to_json(table)
    assert calls == once
    certs = [ev["certificate"] for e in data["entries"] for ev in e["provenance"]
             if "certificate" in ev]
    assert len(certs) == len(cited) and all(c == certs[0] for c in certs)
    # each event its own dict and list: the result shares no mutable object
    assert len(set(map(id, certs))) == len(certs)
    assert len({id(c["factors"]) for c in certs}) == len(certs)

    calls.update(factor_strings=0, format=0)
    text = render_text(table, certificates=True)
    assert calls == once and text.count("witness: ") == len(cited)
