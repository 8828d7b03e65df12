import copy
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from secatm.cli import main
from secatm.modelfile import (
    MAX_ALGEBRA_SIZE,
    ModelFileError,
    load_model_file,
    parse_model,
    parse_mrange,
)

MODELS = Path(__file__).resolve().parent.parent / "models"


def base_doc(**overrides):
    doc = {
        "schema": "secatm-model/1",
        "coeff": "Q",
        "spaces": {"s2": {"construct": "sphere", "n": 2}},
    }
    doc.update(overrides)
    return doc


def covers_doc():
    with open(MODELS / "covers.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_validate(doc, tmp_path, timeout):
    """``secatm validate`` on ``doc`` (or on raw file bytes) in a fresh
    interpreter."""
    model = tmp_path / "model.json"
    model.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "secatm", "validate", str(model)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


def assert_rejected(doc, path, tmp_path, capsys):
    with pytest.raises(ModelFileError) as err:
        parse_model(doc)
    assert err.value.path == path
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    assert main(["bounds", str(model)]) == 1
    assert f"error: {path}:" in capsys.readouterr().err


U2_DOC = {
    "schema": "secatm-model/1",
    "coeff": "Z",
    "spaces": {
        "s1": {"construct": "sphere", "n": 1},
        "s3": {"construct": "sphere", "n": 3},
        "u2": {
            "construct": "product",
            "factors": ["s1", "s3"],
            "h_space_with_division": True,
        },
    },
    "map_pairs": {
        "idinv": {
            "domain": "u2",
            "codomain": "u2",
            "fstar": {"kind": "identity"},
            "gstar": {
                "kind": "images",
                "images": {
                    "a(x)1": {"a(x)1": -1},
                    "1(x)a": {"1(x)a": -1},
                    "a(x)a": {"a(x)a": 1},
                },
            },
        }
    },
    "queries": [{"target": "idinv", "invariant": "dm", "m": "1..4"}],
}


class TestParsing:
    def test_constructor_space(self):
        loaded = parse_model(base_doc())
        assert loaded.bundle.spaces["s2"].hdim == 2

    def test_unitary_group_document(self):
        loaded = parse_model(U2_DOC)
        u2 = loaded.bundle.spaces["u2"]
        assert u2.h_space_with_division
        assert len(loaded.bundle.map_pairs) == 1
        assert loaded.queries[0].ms == [1, 2, 3, 4]

    def test_explicit_algebra_space(self):
        doc = base_doc(
            spaces={
                "ext": {
                    "algebra": {
                        "coeff": "Z",
                        "basis": {"0": ["1"], "1": ["x1"], "3": ["x3"], "4": ["x1x3"]},
                        "products": [["x1", "x3", {"x1x3": 1}]],
                    },
                    "conn": 0,
                    "hdim": 4,
                }
            }
        )
        loaded = parse_model(doc)
        alg = loaded.bundle.spaces["ext"].algebra
        x1, x3 = alg.basis_element("x1"), alg.basis_element("x3")
        assert (x3 * x1) == -alg.basis_element("x1x3")

    def test_coeff_override(self):
        loaded = parse_model(base_doc(), coeff_override="F2")
        assert loaded.bundle.spaces["s2"].algebra.coeff.label == "F2"

    def test_fibration_with_named_total(self):
        doc = {
            "schema": "secatm-model/1",
            "coeff": "F2",
            "spaces": {
                "rp3": {"construct": "real_projective", "n": 3},
                "s3": {"construct": "sphere", "n": 3},
            },
            "fibrations": {
                "cover": {
                    "base": "rp3",
                    "total": "s3",
                    "pstar": {"kind": "augmentation"},
                    "fiber_pi_vanish_from": 1,
                }
            },
        }
        loaded = parse_model(doc)
        assert loaded.bundle.fibrations["cover"].fiber_pi_vanish_from == 1


class TestDiagnostics:
    def test_bad_schema(self):
        with pytest.raises(ModelFileError) as err:
            parse_model({"schema": "nope"})
        assert err.value.path == "schema"

    def test_unknown_constructor(self):
        with pytest.raises(ModelFileError) as err:
            parse_model(base_doc(spaces={"x": {"construct": "torus"}}))
        assert "spaces.x" in str(err.value)

    def test_sign_violation_names_the_pair(self):
        doc = base_doc(
            spaces={
                "bad": {
                    "algebra": {
                        "basis": {"0": ["1"], "1": ["x", "y"], "2": ["u"]},
                        "products": [
                            ["x", "y", {"u": 1}],
                            ["y", "x", {"u": 1}],
                        ],
                    }
                }
            }
        )
        with pytest.raises(ModelFileError) as err:
            parse_model(doc)
        assert "'x'" in str(err.value) and "'y'" in str(err.value)

    def test_non_multiplicative_morphism_is_diagnosed(self):
        doc = dict(U2_DOC)
        doc = json.loads(json.dumps(U2_DOC))  # deep copy
        del doc["map_pairs"]["idinv"]["gstar"]["images"]["a(x)a"]
        with pytest.raises(ModelFileError) as err:
            parse_model(doc)
        assert "multiplicative" in str(err.value)
        assert "gstar" in err.value.path

    # a misspelt source name would otherwise be dropped, and the class it
    # meant would map to zero: a constant map, not the identity
    def test_unknown_source_name_in_images(self, tmp_path, capsys):
        doc = base_doc(map_pairs={"p": {
            "domain": "s2",
            "codomain": "s2",
            "fstar": {"kind": "identity"},
            "gstar": {"kind": "images", "images": {"A": {"a": 1}}},
        }})
        assert_rejected(doc, "map_pairs.p.gstar", tmp_path, capsys)
        with pytest.raises(ModelFileError) as err:
            parse_model(doc)
        assert "unknown source basis name 'A'" in str(err.value)

    def test_unknown_factor_reference(self):
        doc = base_doc(
            spaces={"p": {"construct": "product", "factors": ["s2", "nope"]}}
        )
        with pytest.raises(ModelFileError):
            parse_model(doc)

    def test_circular_reference(self):
        doc = base_doc(
            spaces={"p": {"construct": "product", "factors": ["p", "p"]}}
        )
        with pytest.raises(ModelFileError) as err:
            parse_model(doc)
        assert "circular" in str(err.value)

    def test_duplicate_names_across_kinds(self):
        doc = base_doc()
        doc["fibrations"] = {
            "s2": {
                "base": "s2",
                "total": "s2",
                "pstar": {"kind": "identity"},
            }
        }
        with pytest.raises(ModelFileError) as err:
            parse_model(doc)
        assert "duplicate" in str(err.value)

    def test_query_validation(self):
        doc = base_doc(queries=[{"target": "s2", "invariant": "secat"}])
        with pytest.raises(ModelFileError) as err:
            parse_model(doc)
        assert "no fibration" in str(err.value)

    def test_mrange_parsing(self):
        assert parse_mrange("3") == [3]
        assert parse_mrange("1..4") == [1, 2, 3, 4]
        with pytest.raises(ModelFileError):
            parse_mrange("0..2")
        with pytest.raises(ModelFileError):
            parse_mrange("x")

    # a malformed value in a model file makes the command line exit 1 with
    # the JSON path of the value, never a traceback or a silent coercion

    def test_non_integer_fiber_vanishing_degree(self, tmp_path, capsys):
        doc = covers_doc()
        doc["fibrations"]["cover4"]["fiber_pi_vanish_from"] = "q"
        assert_rejected(doc, "fibrations.cover4.fiber_pi_vanish_from", tmp_path, capsys)

    # a homotopy-vanishing degree below 0 names no degree, so the model is
    # rejected before any table is computed
    def test_negative_fiber_vanishing_degree(self, tmp_path, capsys):
        doc = covers_doc()
        doc["fibrations"]["cover4"]["fiber_pi_vanish_from"] = -7
        assert_rejected(doc, "fibrations.cover4.fiber_pi_vanish_from", tmp_path, capsys)

    def test_negative_vanishing_degree_of_a_constructor(self, tmp_path, capsys):
        doc = base_doc(spaces={"s2": {"construct": "sphere", "n": 2, "pi_vanish_from": -4}})
        assert_rejected(doc, "spaces.s2.pi_vanish_from", tmp_path, capsys)

    def test_negative_vanishing_degree_of_an_explicit_algebra(self, tmp_path, capsys):
        doc = base_doc(spaces={"e": {
            "algebra": {"basis": {"0": ["1"], "1": ["x"]}}, "pi_vanish_from": -1}})
        assert_rejected(doc, "spaces.e.pi_vanish_from", tmp_path, capsys)

    # a negative literature value or an hdim below the top degree contradicts
    # the model, and the error names the field, not just the space

    def test_negative_known_cat(self, tmp_path, capsys):
        doc = base_doc(spaces={"s2": {"construct": "sphere", "n": 2, "known_cat": -1}})
        assert_rejected(doc, "spaces.s2.known_cat", tmp_path, capsys)

    def test_negative_known_tc(self, tmp_path, capsys):
        doc = base_doc(spaces={"e": {
            "algebra": {"basis": {"0": ["1"], "1": ["x"]}}, "known_tc": -2}})
        assert_rejected(doc, "spaces.e.known_tc", tmp_path, capsys)

    def test_negative_known_secat(self, tmp_path, capsys):
        doc = covers_doc()
        doc["fibrations"]["cover4"]["known_secat"] = -1
        assert_rejected(doc, "fibrations.cover4.known_secat", tmp_path, capsys)

    def test_negative_known_d(self, tmp_path, capsys):
        doc = copy.deepcopy(U2_DOC)
        doc["map_pairs"]["idinv"]["known_d"] = -3
        assert_rejected(doc, "map_pairs.idinv.known_d", tmp_path, capsys)

    def test_hdim_below_the_top_degree(self, tmp_path, capsys):
        doc = base_doc(spaces={"s2": {"construct": "sphere", "n": 2, "hdim": 1}})
        assert_rejected(doc, "spaces.s2.hdim", tmp_path, capsys)

    def test_query_m_must_be_a_string(self, tmp_path, capsys):
        doc = covers_doc()
        doc["queries"][0]["m"] = 5
        assert_rejected(doc, "queries[0].m", tmp_path, capsys)

    def test_boolean_is_not_an_integer(self, tmp_path, capsys):
        doc = covers_doc()
        doc["spaces"]["s4"]["n"] = True
        assert_rejected(doc, "spaces.s4.n", tmp_path, capsys)

    # flags must be JSON booleans: bool("false") is True, so the string used
    # to switch a flag on

    def test_constructor_h_space_flag_must_be_a_boolean(self, tmp_path, capsys):
        doc = copy.deepcopy(U2_DOC)
        doc["spaces"]["u2"]["h_space_with_division"] = "false"
        assert_rejected(doc, "spaces.u2.h_space_with_division", tmp_path, capsys)

    def test_explicit_h_space_flag_must_be_a_boolean(self, tmp_path, capsys):
        doc = base_doc(spaces={"e": {
            "algebra": {"basis": {"0": ["1"], "1": ["x"]}},
            "h_space_with_division": 0,
        }})
        assert_rejected(doc, "spaces.e.h_space_with_division", tmp_path, capsys)

    def test_total_contractible_must_be_a_boolean(self, tmp_path, capsys):
        # secat of the identity fibration of S^2 is 0; read as contractible,
        # the total space used to give it cat(S^2) = 1
        doc = base_doc(fibrations={"idfib": {
            "base": "s2", "total": "s2", "pstar": {"kind": "identity"},
            "total_contractible": "false",
        }})
        assert_rejected(doc, "fibrations.idfib.total_contractible", tmp_path, capsys)
        model = tmp_path / "model.json"
        assert main(["bounds", str(model), "idfib", "secat"]) == 1
        assert "fibrations.idfib.total_contractible" in capsys.readouterr().err

    def test_homotopic_must_be_a_boolean(self, tmp_path, capsys):
        doc = copy.deepcopy(U2_DOC)
        doc["map_pairs"]["idinv"]["homotopic"] = "false"
        assert_rejected(doc, "map_pairs.idinv.homotopic", tmp_path, capsys)

    def test_pair_domain_must_be_a_name(self, tmp_path, capsys):
        doc = copy.deepcopy(U2_DOC)
        doc["map_pairs"]["idinv"]["domain"] = ["u2"]
        assert_rejected(doc, "map_pairs.idinv", tmp_path, capsys)

    def test_query_target_must_be_a_name(self, tmp_path, capsys):
        doc = covers_doc()
        doc["queries"][0]["target"] = ["cover4"]
        assert_rejected(doc, "queries[0].target", tmp_path, capsys)

    def test_float_scalars_are_rejected(self, tmp_path, capsys):
        doc = base_doc(
            spaces={
                "x": {
                    "algebra": {
                        "basis": {"0": ["1"], "2": ["y"], "4": ["y2"]},
                        "products": [["y", "y", {"y2": 1.5}]],
                    }
                }
            }
        )
        assert_rejected(doc, "spaces.x.algebra", tmp_path, capsys)
        doc = copy.deepcopy(U2_DOC)
        doc["map_pairs"]["idinv"]["gstar"]["images"]["a(x)1"] = {"a(x)1": -1.0}
        assert_rejected(doc, "map_pairs.idinv.gstar", tmp_path, capsys)

    @pytest.mark.parametrize("scalar", ["abc", "1" * 5000])
    def test_string_scalars_fraction_rejects_get_a_short_message(
            self, scalar, tmp_path, capsys):
        # Fraction's own messages name its literal syntax or advise
        # sys.set_int_max_str_digits(), which a user of a file cannot follow
        doc = base_doc(spaces={"x": {"algebra": {
            "basis": {"0": ["1"], "2": ["y"], "4": ["y2"]},
            "products": [["y", "y", {"y2": scalar}]]}}})
        assert_rejected(doc, "spaces.x.algebra", tmp_path, capsys)
        with pytest.raises(ModelFileError) as err:
            parse_model(doc)
        assert err.value.message.startswith("cannot parse scalar '")
        assert err.value.message.endswith(" over Q")
        assert len(err.value.message) < 80 and "sys." not in err.value.message

    def test_spaces_must_be_an_object(self, tmp_path, capsys):
        assert_rejected(base_doc(spaces="ab"), "spaces", tmp_path, capsys)

    def test_empty_spaces_list_is_not_an_object(self, tmp_path, capsys):
        assert_rejected(base_doc(spaces=[]), "spaces", tmp_path, capsys)

    def test_fibrations_must_be_an_object(self, tmp_path, capsys):
        assert_rejected(base_doc(fibrations=5), "fibrations", tmp_path, capsys)

    def test_map_pairs_must_be_an_object(self, tmp_path, capsys):
        assert_rejected(base_doc(map_pairs=["x"]), "map_pairs", tmp_path, capsys)

    def test_queries_must_be_a_list(self, tmp_path, capsys):
        assert_rejected(base_doc(queries=5), "queries", tmp_path, capsys)

    @staticmethod
    def basis_doc(basis):
        return base_doc(spaces={"x": {"algebra": {"basis": basis}}})

    def test_basis_names_must_be_a_list(self, tmp_path, capsys):
        # a string would be split into one class per character
        doc = self.basis_doc({"0": ["1"], "2": "ab"})
        assert_rejected(doc, "spaces.x.algebra.basis.2", tmp_path, capsys)

    # a string or an object in place of a list was read as its characters or
    # keys, and an object given as a list of pairs went through dict(...)
    WRONG_LISTS = ("ab", {"a": 1, "b": 2})

    def test_space_factors_must_be_a_list(self, tmp_path, capsys):
        spaces = {"a": {"construct": "sphere", "n": 1}, "b": {"construct": "sphere", "n": 3}}
        for factors in self.WRONG_LISTS:
            doc = base_doc(spaces={**spaces, "x": {"construct": "product", "factors": factors}})
            assert_rejected(doc, "spaces.x.factors", tmp_path, capsys)

    def test_fibration_factors_must_be_a_list(self, tmp_path, capsys):
        spaces = {"s1": {"construct": "sphere", "n": 1}, "pt": {"construct": "point"}}
        trivial = {"base": "s1", "total": "pt", "pstar": {"kind": "augmentation"}}
        for factors in self.WRONG_LISTS:
            doc = base_doc(spaces=spaces, fibrations={
                "a": trivial, "b": trivial,
                "x": {"construct": "product_fibration", "factors": factors}})
            assert_rejected(doc, "fibrations.x.factors", tmp_path, capsys)

    def test_unknown_fibration_constructor(self, tmp_path, capsys):
        # used to be ignored: the spec was read as an explicit fibration
        spaces = {"s1": {"construct": "sphere", "n": 1}, "pt": {"construct": "point"}}
        doc = base_doc(spaces=spaces, fibrations={"x": {
            "construct": "bogus", "base": "s1", "total": "pt",
            "pstar": {"kind": "augmentation"}}})
        assert_rejected(doc, "fibrations.x", tmp_path, capsys)

    def test_images_must_be_objects(self, tmp_path, capsys):
        doc = copy.deepcopy(U2_DOC)
        doc["map_pairs"]["idinv"]["fstar"] = {
            "kind": "images", "images": [["a(x)1", {"a(x)1": 1}]]}
        assert_rejected(doc, "map_pairs.idinv.fstar.images", tmp_path, capsys)
        doc = copy.deepcopy(U2_DOC)
        doc["map_pairs"]["idinv"]["gstar"]["images"]["a(x)1"] = [["a(x)1", -1]]
        assert_rejected(doc, "map_pairs.idinv.gstar.images.a(x)1", tmp_path, capsys)

    def test_products_and_their_values_must_be_a_list_and_objects(self, tmp_path, capsys):
        basis = {"0": ["1"], "2": ["y"], "4": ["y2"]}
        doc = base_doc(spaces={"x": {"algebra": {
            "basis": basis, "products": [["y", "y", [["y2", 1]]]]}}})
        assert_rejected(doc, "spaces.x.algebra.products[0]", tmp_path, capsys)
        doc = base_doc(spaces={"x": {"algebra": {
            "basis": basis, "products": {"y": ["y", {"y2": 1}]}}}})
        assert_rejected(doc, "spaces.x.algebra.products", tmp_path, capsys)

    def test_basis_names_must_be_strings(self, tmp_path, capsys):
        doc = self.basis_doc({"0": ["1"], "2": ["a", 3]})
        assert_rejected(doc, "spaces.x.algebra.basis.2", tmp_path, capsys)

    def test_negative_basis_degree(self, tmp_path, capsys):
        # used to be dropped silently
        doc = self.basis_doc({"0": ["1"], "-1": ["y"], "2": ["a"]})
        assert_rejected(doc, "spaces.x.algebra.basis.-1", tmp_path, capsys)

    def test_basis_degree_listed_twice(self, tmp_path, capsys):
        doc = self.basis_doc({"0": ["1"], "2": ["a"], "02": ["b"]})
        assert_rejected(doc, "spaces.x.algebra.basis.02", tmp_path, capsys)

    def test_basis_degree_must_be_an_integer(self, tmp_path, capsys):
        doc = self.basis_doc({"0": ["1"], "two": ["a"]})
        assert_rejected(doc, "spaces.x.algebra.basis.two", tmp_path, capsys)

    def test_conn_above_a_nonzero_degree_of_a_constructor(self, tmp_path, capsys):
        doc = base_doc(spaces={"s2": {"construct": "sphere", "n": 2, "conn": 2}})
        assert_rejected(doc, "spaces.s2.conn", tmp_path, capsys)

    def test_conn_above_a_nonzero_degree_of_an_explicit_algebra(self, tmp_path, capsys):
        doc = base_doc(spaces={"e": {
            "algebra": {"basis": {"0": ["1"], "1": ["x"], "2": ["y"]}},
            "conn": 1, "hdim": 2,
        }})
        assert_rejected(doc, "spaces.e.conn", tmp_path, capsys)

    def test_validate_rejects_bad_blocks(self, tmp_path, capsys):
        for doc in (base_doc(spaces="ab"), self.basis_doc({"0": ["1"], "2": "ab"})):
            model = tmp_path / "model.json"
            model.write_text(json.dumps(doc))
            assert main(["validate", str(model)]) == 1
            assert "error: " in capsys.readouterr().err

    def test_huge_prime_modulus_exits_promptly(self, tmp_path):
        # trial division on a 19-digit prime would run for hours
        done = run_validate(base_doc(coeff="F1000000000000000003"), tmp_path, timeout=30)
        assert done.returncode == 1
        assert "error: coeff:" in done.stderr and "Traceback" not in done.stderr

    def test_conn_null_on_a_constructor(self, tmp_path, capsys):
        # used to end in a comparison of None with an int
        doc = base_doc(spaces={"s2": {"construct": "sphere", "n": 2, "conn": None}})
        assert_rejected(doc, "spaces.s2.conn", tmp_path, capsys)

    # algebras above the size bound are rejected before they are built;
    # without the bound each of these hung, ran out of memory or took
    # seconds to tens of seconds

    SIZE_BOMBS = {
        "sphere_of_dimension_2_40": (
            {"s": {"construct": "sphere", "n": 2 ** 40}}, "spaces.s.n"),
        "real_projective_800": (
            {"r": {"construct": "real_projective", "n": 800}}, "spaces.r.n"),
        "real_projective_200": (
            {"r": {"construct": "real_projective", "n": 200}}, "spaces.r.n"),
        "explicit_basis_in_degree_10_8": (
            {"e": {"algebra": {"basis": {"0": ["1"], "100000000": ["x"]}}}},
            "spaces.e.algebra.basis.100000000"),
        "product_of_12_circles": (
            {"s1": {"construct": "sphere", "n": 1},
             "t": {"construct": "product", "factors": ["s1"] * 12}}, "spaces.t"),
    }

    @pytest.mark.parametrize("spaces, path", SIZE_BOMBS.values(), ids=SIZE_BOMBS)
    def test_size_bomb_exits_promptly(self, spaces, path, tmp_path):
        done = run_validate(base_doc(spaces=spaces), tmp_path, timeout=5)
        assert done.returncode == 1
        assert f"error: {path}: " in done.stderr and "Traceback" not in done.stderr

    def test_size_bound_admits_its_own_value(self):
        top = {"construct": "sphere", "n": MAX_ALGEBRA_SIZE}
        basis = {str(d): [f"x{d}"] for d in range(MAX_ALGEBRA_SIZE)}
        wide = {"algebra": {"basis": basis}, "hdim": MAX_ALGEBRA_SIZE}
        spaces = parse_model(base_doc(spaces={"top": top, "wide": wide})).bundle.spaces
        assert spaces["top"].algebra.top_degree == MAX_ALGEBRA_SIZE
        assert spaces["wide"].algebra.total_dim == MAX_ALGEBRA_SIZE

    # the smallest inputs just above the bound S: CP^n has top degree 2n,
    # the genus-g surface 2g + 2 classes and T^k 2^k classes, so CP^(S/2+1),
    # the genus-S/2 surface, S + 1 explicit classes and T^(bit length of S);
    # at S = 32 that is CP^17, the genus-16 surface, 33 classes and T^6
    @pytest.mark.parametrize("spaces, path", [
        # CP^n and the genus-g surface are checked once built
        ({"c": {"construct": "complex_projective", "n": MAX_ALGEBRA_SIZE // 2 + 1}},
         "spaces.c"),
        ({"g": {"construct": "orientable_surface", "genus": MAX_ALGEBRA_SIZE // 2}},
         "spaces.g"),
        ({"s": {"construct": "sphere", "n": 2, "hdim": MAX_ALGEBRA_SIZE + 1}},
         "spaces.s.hdim"),
        ({"e": {"algebra": {"basis": {
            "0": ["1"], "1": [f"x{k}" for k in range(MAX_ALGEBRA_SIZE)]}}}},
         "spaces.e.algebra.basis"),
        ({"s1": {"construct": "sphere", "n": 1},
          "t": {"construct": "product", "factors": ["s1"] * MAX_ALGEBRA_SIZE.bit_length()}},
         "spaces.t"),
        ({"pt": {"construct": "point"},
          "p": {"construct": "product", "factors": ["pt"] * (MAX_ALGEBRA_SIZE + 1)}},
         "spaces.p.factors"),
    ])
    def test_size_bound_names_the_path(self, spaces, path, tmp_path, capsys):
        assert_rejected(base_doc(spaces=spaces), path, tmp_path, capsys)

    def test_product_fibration_above_the_size_bound(self, tmp_path, capsys):
        # each factor's base is T^k with 2^k classes within the bound S, and
        # the product's base has 4^k above it: k is half the bit length of S
        # rounded up, T^3 (8 classes, 64 in the product) at S = 32
        k = (MAX_ALGEBRA_SIZE.bit_length() + 1) // 2
        assert 2 ** k <= MAX_ALGEBRA_SIZE < 4 ** k
        circles = {"s1": {"construct": "sphere", "n": 1},
                   "tk": {"construct": "product", "factors": ["s1"] * k},
                   "pt": {"construct": "point"}}
        trivial = {"base": "tk", "total": "pt", "pstar": {"kind": "augmentation"}}
        doc = base_doc(spaces=circles, fibrations={
            "a": trivial, "b": trivial,
            "ab": {"construct": "product_fibration", "factors": ["a", "b"]}})
        assert_rejected(doc, "fibrations.ab", tmp_path, capsys)

    def test_constructed_and_explicit_spaces_take_the_same_metadata(self):
        meta = {"conn": 1, "hdim": 5, "pi_vanish_from": 4, "known_cat": None,
                "known_tc": 2, "h_space_with_division": True}
        doc = base_doc(spaces={
            "made": {"construct": "sphere", "n": 3, **meta},
            "listed": {"algebra": {"basis": {"0": ["1"], "3": ["a"]}}, **meta},
        })
        spaces = parse_model(doc).bundle.spaces
        made, listed = spaces["made"], spaces["listed"]
        assert replace(made, algebra=listed.algebra) == listed
        assert (listed.conn, listed.hdim, listed.known_cat) == (1, 5, None)


# file contents that json.load cannot decode: each used to end in a traceback
# except the first
BAD_JSON = {
    "syntax": b"{not json",
    "not-utf8": b"\xff\xfe",
    "long-integer": b'{"schema": ' + b"1" * 5000 + b"}",  # above int()'s digit limit
    "deep-nesting": b"[" * 100000,
}


class TestFileLoading:
    def test_round_trip_through_disk(self, tmp_path):
        path = tmp_path / "u2.json"
        path.write_text(json.dumps(U2_DOC))
        loaded = load_model_file(str(path))
        assert "u2" in loaded.bundle.spaces

    def test_missing_file(self):
        with pytest.raises(ModelFileError):
            load_model_file("/nonexistent/model.json")

    @pytest.mark.parametrize("content", BAD_JSON.values(), ids=BAD_JSON)
    def test_invalid_json(self, content, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        with pytest.raises(ModelFileError) as err:
            load_model_file(str(path))
        assert err.value.path == str(path)

    def test_invalid_json_exits_with_an_error_line(self, tmp_path):
        for content in BAD_JSON.values():
            done = run_validate(content, tmp_path, timeout=30)
            assert done.returncode == 1
            model = tmp_path / "model.json"
            assert f"error: {model}: " in done.stderr and "Traceback" not in done.stderr
