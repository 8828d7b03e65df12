"""The index pairs of the rule records against the pairs they had before the
engine dropped those the monotone tables imply, and before the facts on one
table left the rule table (``reference.UnprunedEngine``): the same events in
the same order, certificates included, and every dropped pair implied by an
earlier kept pair of its record."""

from pathlib import Path

import pytest

from secatm import engine
from secatm.engine import compute_tables
from secatm.goldens import all_cases
from secatm.modelfile import load_model_file
from secatm.tables import INF, BoundTable

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
    higher, componentwise, than ``pair`` does."""
    (m, ns), (m2, ns2) = earlier, pair
    return m == m2 and all(_rank(n) <= _rank(n2) for n, n2 in zip(ns, ns2))


def test_every_dropped_pair_is_implied_by_an_earlier_kept_one(monkeypatch):
    calls = []

    def recorded(self, target, sources, pairs=engine._Engine._pairs):
        kept = pairs(self, target, sources)
        calls.append((kept, unpruned_pairs(self, target, sources)))
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
    # on the catalogue at M = 256 the engine's rule table is smaller than
    # the reference's, which holds the facts on one table as records too;
    # the table steps hold no index pairs
    sizes = {}
    for run in (engine._Engine, UnprunedEngine):
        for lit in (True, False):
            built = run(_catalogue_bundle(), 256, lit, None)
            built.run()
            records = [r for r in built.rules if not isinstance(r, BoundTable)]
            sizes[run, lit] = (len(records), sum(len(r.pairs) for r in records))
    reference = sizes[UnprunedEngine, True]
    assert sizes[UnprunedEngine, False] == reference
    for lit in (True, False):
        records, pairs = sizes[engine._Engine, lit]
        assert records < reference[0] and pairs < reference[1]
