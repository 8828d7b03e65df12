"""The index pairs of the rule records against the pairs they had before the
engine dropped those the monotone tables imply (``reference.UnprunedEngine``):
the same events in the same order, certificates included, and every dropped
pair implied by an earlier kept pair of its record."""

from pathlib import Path

import pytest

from secatm import engine
from secatm.engine import compute_tables
from secatm.goldens import all_cases
from secatm.modelfile import load_model_file
from secatm.tables import INF

from reference import UnprunedEngine, unpruned_pairs
from test_fixpoint import _catalogue_bundle, _dumps

ROOT = Path(__file__).resolve().parent.parent


def assert_equal_to_the_unpruned_pairs(monkeypatch, build, **kwargs):
    pruned = _dumps(compute_tables(build(), **kwargs))
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_Engine", UnprunedEngine)
        unpruned = _dumps(compute_tables(build(), **kwargs))
    assert pruned == unpruned


@pytest.mark.parametrize("lit", [True, False], ids=["literature", "no-literature"])
@pytest.mark.parametrize("case", all_cases(), ids=lambda case: case.name)
def test_golden_bundles_equal_the_unpruned_pairs(monkeypatch, case, lit):
    _, targets, _ = case.build()
    for request in (None, targets):
        assert_equal_to_the_unpruned_pairs(monkeypatch, lambda: case.build()[0],
                                           use_literature=lit, targets=request)


@pytest.mark.parametrize("lit", [True, False], ids=["literature", "no-literature"])
@pytest.mark.parametrize("path", sorted((ROOT / "models").glob("*.json")),
                         ids=lambda path: path.name)
def test_model_files_equal_the_unpruned_pairs(monkeypatch, path, lit):
    assert_equal_to_the_unpruned_pairs(monkeypatch, lambda: load_model_file(path).bundle,
                                       use_literature=lit)


@pytest.mark.parametrize("lit", [True, False], ids=["literature", "no-literature"])
@pytest.mark.parametrize("max_m", [64, 256])
def test_rules_wide_catalogue_equals_the_unpruned_pairs(monkeypatch, max_m, lit):
    assert_equal_to_the_unpruned_pairs(monkeypatch, _catalogue_bundle, max_m=max_m,
                                       use_literature=lit)


def _rank(row):
    return float("inf") if row == INF else row


def _implies(earlier, pair) -> bool:
    """Whether ``earlier`` bounds the same target row by source rows no
    higher, componentwise, and a shift no larger than ``pair`` does."""
    (m, ns, shift), (m2, ns2, shift2) = earlier, pair
    return (m == m2 and shift <= shift2
            and all(_rank(n) <= _rank(n2) for n, n2 in zip(ns, ns2)))


def test_every_dropped_pair_is_implied_by_an_earlier_kept_one(monkeypatch):
    calls = []

    def recorded(self, kind, dim, target, sources, pairs=engine._Engine._pairs):
        kept = pairs(self, kind, dim, target, sources)
        calls.append((kept, unpruned_pairs(self, kind, dim, target, sources)))
        return kept
    monkeypatch.setattr(engine._Engine, "_pairs", recorded)
    compute_tables(_catalogue_bundle(), max_m=256)
    for case in all_cases():
        compute_tables(case.build()[0])
    dropped = 0
    for kept, full in calls:
        earlier = []
        for pair in full:
            if pair in kept:
                assert not any(_implies(q, pair) for q in earlier), (pair, kept)
                earlier.append(pair)
            else:
                assert any(_implies(q, pair) for q in earlier), (pair, kept)
                dropped += 1
        assert earlier == kept  # kept in the order the unpruned list has them
    assert dropped > 0


def test_the_catalogue_keeps_fewer_records_and_pairs():
    # on the catalogue at M = 256 the unpruned rule table has 1472 records and
    # 8562 index pairs, 2561 of them implied by the monotone tables
    sizes = {}
    for run in (engine._Engine, UnprunedEngine):
        for lit in (True, False):
            built = run(_catalogue_bundle(), 256, lit, None)
            built.run()
            sizes[run, lit] = (len(built.rules), sum(len(r.pairs) for r in built.rules))
    assert sizes[UnprunedEngine, True] == sizes[UnprunedEngine, False] == (1472, 8562)
    for lit in (True, False):
        records, pairs = sizes[engine._Engine, lit]
        assert records <= 1428 and pairs <= 6001
