"""The rule fixpoint, which skips a record or table step while its inputs
have not narrowed, against the plain loop that re-applies every one on
every sweep (``reference.sweep_until_quiet``): the same events in the same
order, certificates included."""

from dataclasses import replace
from pathlib import Path

import pytest

from secatm import engine
from secatm.engine import Bundle, _Bound, _fixpoint, compute_tables
from secatm.goldens import all_cases
from secatm.modelfile import load_model_file
from secatm.spaces import sphere
from secatm.tables import INF, BoundTable, table_to_json

from reference import sweep_until_quiet
from test_engine import _perfbench_cases

ROOT = Path(__file__).resolve().parent.parent


def _dumps(tables) -> list:
    return [(key, table_to_json(table)) for key, table in tables.items()]


def assert_equal_to_the_plain_loop(monkeypatch, build, **kwargs):
    skipped = _dumps(compute_tables(build(), **kwargs))
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_fixpoint", sweep_until_quiet)
        plain = _dumps(compute_tables(build(), **kwargs))
    assert skipped == plain


@pytest.mark.parametrize("lit", [True, False], ids=["literature", "no-literature"])
@pytest.mark.parametrize("case", all_cases(), ids=lambda case: case.name)
def test_golden_bundles_equal_the_plain_loop(monkeypatch, case, lit):
    _, targets, _ = case.build()
    for request in (None, targets):
        assert_equal_to_the_plain_loop(monkeypatch, lambda: case.build()[0],
                                       use_literature=lit, targets=request)


@pytest.mark.parametrize("lit", [True, False], ids=["literature", "no-literature"])
@pytest.mark.parametrize("path", sorted((ROOT / "models").glob("*.json")),
                         ids=lambda path: path.name)
def test_model_files_equal_the_plain_loop(monkeypatch, path, lit):
    assert_equal_to_the_plain_loop(monkeypatch, lambda: load_model_file(path).bundle,
                                   use_literature=lit)


def _catalogue_bundle() -> Bundle:
    """Every item of the benchmark's rules-wide catalogue in one bundle."""
    cases = _perfbench_cases()
    makers = {item: make for category in cases.rules_wide_catalogue().values()
              for item, make in category.items()}
    bundle = Bundle()
    cases.add_items(bundle, makers, sorted(makers))
    return bundle


@pytest.mark.parametrize("lit", [True, False], ids=["literature", "no-literature"])
def test_rules_wide_catalogue_equals_the_plain_loop(monkeypatch, lit):
    assert_equal_to_the_plain_loop(monkeypatch, _catalogue_bundle, max_m=256,
                                   use_literature=lit)


def test_the_fixpoint_skips_records_whose_inputs_did_not_narrow(monkeypatch):
    applied = []

    def counted(apply):
        def apply_counted(self):
            applied.append(self)
            return apply(self)
        return apply_counted
    for kind in (_Bound, BoundTable):
        monkeypatch.setattr(kind, "apply", counted(kind.apply))
    runs = {}
    for fixpoint in (_fixpoint, sweep_until_quiet):
        monkeypatch.setattr(engine, "_fixpoint", fixpoint)
        applied.clear()
        compute_tables(_catalogue_bundle(), max_m=256)
        runs[fixpoint] = len(applied)
    assert runs[_fixpoint] < runs[sweep_until_quiet] * 2 // 3


class _Logged:
    """A record that notes whether each of its applications narrowed."""

    def __init__(self, record, log):
        self.record, self.inputs, self.log = record, record.inputs, log

    def apply(self) -> bool:
        self.log.append(self.record.apply())
        return self.log[-1]


@pytest.mark.parametrize("fixpoint", [_fixpoint, sweep_until_quiet],
                         ids=["skipping", "plain"])
def test_one_narrowing_reaches_every_implied_row_in_one_call(fixpoint):
    # an upper bound on row 6 lowers the rows below it and a lower bound on
    # row 2 raises the rows above it, in the call that sets them
    table = BoundTable("cat", "x", 8)
    assert table.lower_hi(6, 2, "test", "a bound on one finite row")
    assert table.raise_lo(2, 1, "test", "a lower bound below it")
    assert [table.hi(m) for m in range(1, 9)] == [2] * 6 + [None] * 2
    assert [table.lo(m) for m in range(1, 9)] == [0] + [1] * 7
    assert table.interval(INF).as_pair() == (1, None)
    assert [len(table.events[m]) for m in range(1, 7)] == [1] + [2] * 5
    # cat <= tc and tc <= cat at m = 6 alone carry both bounds to every
    # implied row of tc in their first applications; no later sweep narrows
    other, log = BoundTable("tc", "x", 8), []
    records = [_Bound("test", table, (other,), [(6, (6,))], "at most tc", "at least cat"),
               _Bound("test", other, (table,), [(6, (6,))], "at most cat")]
    fixpoint([_Logged(record, log) for record in records])
    assert log[:2] == [True, True] and not any(log[2:])
    assert [other.interval(m).as_pair() for m in (1, 5, 6, 7, 8, INF)] == [
        (0, 2), (0, 2), (1, 2), (1, None), (1, None), (1, None)]
    assert [table.interval(m).as_pair() for m in (1, 6, 7, INF)] == [
        (0, 2), (1, 2), (1, None), (1, None)]


def test_a_shifted_record_narrows_both_ends():
    # dim_recovery, in the step of a table of dimension 6: x[inf] <= x[m] +
    # floor(6/(m+1)), so x[m] >= x[inf] - floor(6/(m+1))
    table = BoundTable("cat", "x", 8, dim=6)
    table.raise_lo(INF, 4, "test", "a classical lower bound")
    table.lower_hi(2, 2, "test", "an upper bound on one finite row")
    assert table.inputs == (table,)
    assert table.apply()
    assert [table.lo(m) for m in range(1, 6)] == [1, 2, 3, 3, 3]
    assert table.interval(INF).as_pair() == (4, 4)
    assert [(e.rule, e.side, e.value) for e in table.log[INF][1:]] == [
        ("dim_recovery", "hi", 5), ("dim_recovery", "hi", 4)]
    assert not table.apply()


def test_the_skeletal_cap_never_goes_below_2():
    # row d - 1 of a table of dimension 4 is at most 1: dimension recovery
    # leaves inf at most 2, and the cap max(row 3, 2) does not go below it
    table = BoundTable("cat", "x", 10, dim=4)
    table.lower_hi(3, 1, "test", "an upper bound on row d - 1")
    assert table.apply()
    assert table.interval(INF).as_pair() == (0, 2)
    assert [(e.rule, e.value) for e in table.log[INF]] == [
        ("dim_recovery", 3), ("dim_recovery", 2)]


def test_a_record_without_lo_detail_never_raises_a_lower_end():
    cat, tc = BoundTable("cat", "x", 3), BoundTable("tc", "x", 3)
    cat.raise_lo(2, 2, "test", "a lower bound on cat")
    tc.lower_hi(2, 3, "test", "an upper bound on tc")
    pairs = [(m, (m,)) for m in (1, 2, 3, INF)]
    one_sided = _Bound("cat_le_tc", cat, (tc,), pairs, "at most tc")
    assert one_sided.inputs == (tc,)
    assert one_sided.apply()
    assert [tc.lo(m) for m in (1, 2, 3, INF)] == [0] * 4
    assert cat.interval(2).as_pair() == (2, 3)
    two_sided = _Bound("cat_le_tc", cat, (tc,), pairs, "at most tc", "at least cat")
    assert two_sided.inputs == (tc, cat)
    assert two_sided.apply()
    assert tc.interval(2).as_pair() == (2, 3)


def test_an_equality_is_two_records_that_close_both_tables():
    # tc = cat on an H-space is h_space_eq one way and cat_le_tc the other
    bundle = Bundle()
    bundle.add_space("s3", replace(sphere(3), h_space_with_division=True))
    run = engine._Engine(bundle, 8, True, None)
    run.run()
    tc, cat = run.t("tc", "s3"), run.t("cat", "s3")
    records = [r for r in run.rules if isinstance(r, _Bound)]
    (first,) = [r for r in records if r.rule == "h_space_eq"]
    (second,) = [r for r in records if r.rule == "cat_le_tc"]
    assert (first.target, first.sources, second.target, second.sources) == (tc, (cat,), cat, (tc,))
    assert first.lo_detail is not None and second.lo_detail is not None
    # each runs m up to its own target's stable row (6 for tc, 3 for cat):
    # cat <= tc is the reverse of tc <= cat up to cat's inf row
    assert first.pairs == [(1, (1,)), (2, (2,)), *[(m, (INF,)) for m in (3, 4, 5, INF)]]
    assert second.pairs == [(n, (m,)) for m, (n,) in first.pairs][:cat.stable_from]
    # two fresh tables, each narrowed on one side of one row
    a, b = BoundTable("tc", "y", 4), BoundTable("cat", "y", 4)
    a.raise_lo(3, 1, "test", "a lower bound on a")
    b.lower_hi(3, 1, "test", "an upper bound on b")
    pairs = [(m, (m,)) for m in (1, 2, 3, 4, INF)]
    _fixpoint([_Bound("eq", a, (b,), pairs, "d", "d"), _Bound("eq", b, (a,), pairs, "d", "d")])
    assert a.interval(3).as_pair() == b.interval(3).as_pair() == (1, 1)
    assert [(e.side, e.value) for e in a.events[3] if e.rule == "eq"] == [("hi", 1)]
    assert [(e.side, e.value) for e in b.events[3] if e.rule == "eq"] == [("lo", 1)]
