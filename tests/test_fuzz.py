"""Random mutations of the shipped model files, run through the command
line: whatever a file holds, ``secatm bounds`` and ``secatm validate`` exit
0, 1 or 2 and let no exception escape."""

import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from secatm.cli import main

MODELS = Path(__file__).resolve().parent.parent / "models"
DOCS = {name: json.loads((MODELS / name).read_text(encoding="utf-8"))
        for name in ("u2.json", "covers.json")}

# names and labels the files use, so that a mutation often stays well formed
WORDS = ["s1", "s3", "u2", "idinv", "rp4", "s4", "cover4", "a(x)1", "1(x)a", "a(x)a",
         "Q", "Z", "F2", "F3", "1..4", "identity", "augmentation", "images", "sphere",
         "product", "real_projective", "point", "cat", "tc", "secat", "dm", "hdm"]
# fields a model may declare, for mutations that add one
FIELDS = ["conn", "hdim", "pi_vanish_from", "known_cat", "known_tc", "known_secat",
          "known_d", "h_space_with_division", "homotopic", "total_contractible",
          "factors", "square", "triangle", "coeff", "n", "genus", "rank", "construct",
          "algebra", "basis", "products", "m"]

SCALARS = st.one_of(st.integers(-2, 6), st.just(2 ** 40), st.none(), st.booleans(),
                    st.floats(), st.sampled_from(WORDS), st.text(max_size=4))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(WORDS + FIELDS) | st.text(max_size=3), inner,
                        max_size=3),
    ),
    max_leaves=6,
)


def _slots(node):
    """(container, key) of every value below ``node``."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return
    for key, child in items:
        yield node, key
        yield from _slots(child)


@st.composite
def mutated_docs(draw):
    """One of the shipped files with one to three values replaced, or fields
    added to its objects."""
    doc = copy.deepcopy(DOCS[draw(st.sampled_from(sorted(DOCS)))])
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(list(_slots(doc))))
        if isinstance(container, dict) and draw(st.booleans()):
            key = draw(st.sampled_from(FIELDS))
        container[key] = draw(VALUES)
    return doc


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutated_docs())
def test_mutated_model_files_exit_cleanly(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for argv in (["bounds", path, "--max-m", "4"], ["validate", path]):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2)
