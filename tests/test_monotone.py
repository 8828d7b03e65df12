"""Monotonicity in m as a fact of ``BoundTable``: every narrowing keeps a
table's entries non-decreasing in m and at most the inf entry.

The engine's intervals are checked against the design it replaced
(``reference.compute_tables_by_records``): tables that narrow one row per
call, with the ``monotone_m`` and ``classical_cap`` rule records swept
alongside the others.  Both are monotone narrowings to the same fixpoint,
so every interval of every row must agree; only the provenance differs."""

from pathlib import Path

import pytest

from secatm import engine
from secatm.engine import compute_tables
from secatm.goldens import all_cases
from secatm.modelfile import load_model_file
from secatm.tables import INF, BoundTable, InconsistentModel

from reference import compute_tables_by_records
from test_fixpoint import _catalogue_bundle

ROOT = Path(__file__).resolve().parent.parent
MODELS = sorted((ROOT / "models").glob("*.json"))
LITERATURE = pytest.mark.parametrize("lit", [True, False], ids=["literature", "no-literature"])


def _intervals(tables) -> list:
    return [(key, [(m, table.lo(m), table.hi(m)) for m in table.index])
            for key, table in sorted(tables.items())]


def assert_equal_to_the_records(build, **kwargs):
    assert _intervals(compute_tables(build(), **kwargs)) == _intervals(
        compute_tables_by_records(build(), **kwargs))


@LITERATURE
@pytest.mark.parametrize("case", all_cases(), ids=lambda case: case.name)
def test_golden_bundles_equal_the_records(case, lit):
    _, targets, _ = case.build()
    for max_m in (None, 64, 300):
        for request in (None, targets):
            assert_equal_to_the_records(lambda: case.build()[0], max_m=max_m,
                                        use_literature=lit, targets=request)


@LITERATURE
@pytest.mark.parametrize("path", MODELS, ids=lambda path: path.name)
def test_model_files_equal_the_records(path, lit):
    for max_m in (64, 300):
        assert_equal_to_the_records(lambda: load_model_file(path).bundle, max_m=max_m,
                                    use_literature=lit)


@LITERATURE
@pytest.mark.parametrize("max_m", [64, 300])
def test_rules_wide_catalogue_equals_the_records(lit, max_m):
    assert_equal_to_the_records(_catalogue_bundle, max_m=max_m, use_literature=lit)


def _lowest_cap_only(capped_values):
    """``_Engine._capped_values`` keeping the lowest cap with a positive
    cup-length alone: its rows get a bound of their own, and the rows above
    them get theirs from monotonicity in m."""
    def lowest(self, *args):
        values = capped_values(self, *args)
        first = min([cap for cap, (length, _) in values.items() if length], default=None)
        return {cap: value if cap == first else (0, None) for cap, value in values.items()}
    return lowest


@LITERATURE
def test_bounds_on_the_lowest_rows_alone_equal_the_records(monkeypatch, lit):
    monkeypatch.setattr(engine._Engine, "_capped_values",
                        _lowest_cap_only(engine._Engine._capped_values))
    assert_equal_to_the_records(_catalogue_bundle, max_m=64, use_literature=lit)
    for path in MODELS:
        assert_equal_to_the_records(lambda: load_model_file(path).bundle, max_m=64,
                                    use_literature=lit)


def _assert_monotone(tables):
    for table in tables.values():
        los = [table.rows[m].lo for m in table.stored]
        his = [table.rows[m].hi for m in table.stored]
        assert los == sorted(los), table.key()
        assert his == sorted(his, key=lambda hi: (hi is None, hi or 0)), table.key()


@LITERATURE
def test_computed_tables_are_non_decreasing_in_m(lit):
    for case in all_cases():
        bundle, targets, _ = case.build()
        _assert_monotone(compute_tables(bundle, use_literature=lit))
        _assert_monotone(compute_tables(case.build()[0], use_literature=lit, targets=targets))
    for path in MODELS:
        _assert_monotone(compute_tables(load_model_file(path).bundle, use_literature=lit))


def _events(table) -> int:
    return sum(len(events) for events in table.log.values())


def test_a_walk_stops_at_the_first_row_as_tight():
    t = BoundTable("cat", "x", 8)
    assert t.lower_hi(3, 1, "r", "d") and _events(t) == 3
    # rows 5 and 4 narrow; row 3 already holds 1, so rows 2 and 1 are not reached
    assert t.lower_hi(6, 1, "r", "d") and _events(t) == 6
    assert [t.hi(m) for m in range(1, 9)] == [1] * 6 + [None] * 2
    assert [len(t.log[m]) for m in range(1, 7)] == [1] * 6
    assert t.raise_lo(5, 1, "s", "e") and _events(t) == 11  # 5, 6, 7, 8 and inf
    # rows 2, 3 and 4 narrow; row 5 already holds 1
    assert t.raise_lo(2, 1, "s", "e") and _events(t) == 14
    assert [(e.rule, e.detail) for e in t.log[4]] == [
        ("monotone_m", "at most the m=6 entry"), ("monotone_m", "at least the m=2 entry")]
    assert [(e.rule, e.detail) for e in t.log[INF]] == [
        ("classical_cap", "dominates the m=5 entry")]
    # a bound no tighter than the row's own narrows nothing
    assert not t.lower_hi(6, 1, "r", "d") and not t.raise_lo(INF, 1, "s", "e")
    assert _events(t) == 14


def test_the_inf_row_bounds_the_stored_rows_below_it():
    t = BoundTable("cat", "x", 6, dim=3)  # rows 1, 2 and inf
    assert t.lower_hi(5, 2, "r", "d")
    assert [(e.rule, e.value, e.detail) for e in t.log[2] + t.log[1]] == [
        ("classical_cap", 2, "at most the classical value")] * 2
    assert t.raise_lo(1, 1, "s", "e")
    assert [(e.rule, e.detail) for e in t.log[2][1:] + t.log[INF][1:]] == [
        ("monotone_m", "at least the m=1 entry"), ("classical_cap", "dominates the m=1 entry")]
    assert [t.interval(m).as_pair() for m in t.index] == [(1, 2)] * 7


def test_a_crossing_found_mid_walk_names_its_row_and_both_chains():
    # a table whose row 3 was narrowed alone, as ``table_from_json`` may
    # leave one; the walk up from row 1 crosses at row 3
    t = BoundTable("cat", "x", 5)
    t._narrow(3, "hi", 1, "r", "an upper bound on row 3 alone")
    with pytest.raises(InconsistentModel) as info:
        t.raise_lo(1, 2, "s", "a lower bound on row 1")
    err = info.value
    assert (err.invariant, err.target, err.m) == ("cat", "x", 3)
    assert [(e.rule, e.value) for e in err.lo_events] == [("monotone_m", 2)]
    assert [(e.rule, e.value) for e in err.hi_events] == [("r", 1)]
    assert t.interval(2).as_pair() == (2, None)
