"""The benchmark's tracer patches functions of the package by name; a
cleanup that drops one of those names, or stops calling it, must fail here,
not in a benchmark run.  The tracer is read from ``perfbench/tracer.py`` and executed without
writing anything next to it."""

import importlib
import types
from pathlib import Path

from secatm.algebra import RingMorphism
from secatm.engine import Bundle
from secatm.spaces import FibrationModel, point, sphere

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    module = types.ModuleType("tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_patches_every_name_and_restores_it():
    tr = _load_tracer()
    names = ({mod for mod, _, _ in tr.SPANNED}
             | {mod for mod, _, _, _ in tr.SPANNED_METHODS}
             | set(tr.ECHELON_FACTORIES) | {"secatm.tables"})
    mods = {name: importlib.import_module(name) for name in names}
    tracer = tr.Tracer(mods)
    tracer.count_narrow_calls = True
    patched = [(mods[mod], attr) for mod, attr, _ in tr.SPANNED]
    patched += [(getattr(mods[mod], cls), attr) for mod, cls, attr, _ in tr.SPANNED_METHODS]
    patched += [(mods[mod], "make_echelon") for mod in tr.ECHELON_FACTORIES]
    before = [getattr(owner, attr) for owner, attr in patched]
    tracer.install()  # AttributeError on a name the package no longer has
    try:
        for (owner, attr), original in zip(patched, before):
            assert getattr(owner, attr) is not original, attr
        bundle = Bundle()
        bundle.add_space("s2", sphere(2))
        s3, pt = sphere(3), point()
        bundle.add_fibration("path", FibrationModel(
            base=s3, total_algebra=pt.algebra,
            pstar=RingMorphism.augmentation(s3.algebra, pt.algebra),
            total_contractible=True))
        mods["secatm.engine"].compute_tables(bundle, max_m=2)
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(patched, before):
        assert getattr(owner, attr) is original, attr
    assert tracer.counts["cuplength.calls"] > 0
    assert tracer.counts["linalg.echelon_inserts"] > 0
    # every wrapped engine name is still what the engine calls: tc of s2
    # builds a square, secat of the path fibration takes a kernel
    spans = {span[1] for span in tracer.spans}
    assert {"cuplength.capped", "algebra.tensor_square", "algebra.kernel"} <= spans
