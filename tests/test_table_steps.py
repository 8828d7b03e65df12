"""The facts on one table, ``dim_recovery``, ``skeletal_cap`` and
``pi_vanishing_eq``, as one fixpoint step per table (``BoundTable.apply``)
against the rule records they were, swept where the steps are, with each
equality written as two records (``reference.SelfRecordEngine``): the same
events in the same order, certificates included.  Each fact reads and
writes its own table only, so grouping them per table commutes with the
steps of every other table."""

from pathlib import Path

import pytest

from secatm import engine
from secatm.engine import compute_tables
from secatm.goldens import all_cases
from secatm.modelfile import load_model_file

from reference import SelfRecordEngine
from test_engine import _rule_witnesses
from test_fixpoint import _catalogue_bundle, _dumps

ROOT = Path(__file__).resolve().parent.parent
LITERATURE = pytest.mark.parametrize("lit", [True, False], ids=["literature", "no-literature"])


def assert_equal_to_the_self_records(monkeypatch, build, **kwargs):
    steps = _dumps(compute_tables(build(), **kwargs))
    with monkeypatch.context() as patch:
        patch.setattr(engine, "_Engine", SelfRecordEngine)
        records = _dumps(compute_tables(build(), **kwargs))
    assert steps == records


@LITERATURE
@pytest.mark.parametrize("case", all_cases(), ids=lambda case: case.name)
def test_golden_bundles_equal_the_self_records(monkeypatch, case, lit):
    _, targets, _ = case.build()
    for request in (None, targets):
        assert_equal_to_the_self_records(monkeypatch, lambda: case.build()[0],
                                         use_literature=lit, targets=request)


@LITERATURE
@pytest.mark.parametrize("path", sorted((ROOT / "models").glob("*.json")),
                         ids=lambda path: path.name)
def test_model_files_equal_the_self_records(monkeypatch, path, lit):
    assert_equal_to_the_self_records(monkeypatch, lambda: load_model_file(path).bundle,
                                     use_literature=lit)


@LITERATURE
@pytest.mark.parametrize("max_m", [64, 256])
def test_rules_wide_catalogue_equals_the_self_records(monkeypatch, max_m, lit):
    assert_equal_to_the_self_records(monkeypatch, _catalogue_bundle, max_m=max_m,
                                     use_literature=lit)


@LITERATURE
def test_rule_witnesses_equal_the_self_records(monkeypatch, lit):
    # the witnesses fire all three facts, skeletal_cap among them, which the
    # corpora above leave idle
    for _, make in _rule_witnesses().WITNESSES.values():
        assert_equal_to_the_self_records(monkeypatch, make, use_literature=lit)
