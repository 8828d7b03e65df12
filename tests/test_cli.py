import json

import pytest

from secatm.cli import main
from secatm.tables import table_from_json, table_to_json

from test_modelfile import U2_DOC, base_doc


@pytest.fixture
def u2_file(tmp_path):
    path = tmp_path / "u2.json"
    path.write_text(json.dumps(U2_DOC))
    return str(path)


@pytest.fixture
def surfaces_file(tmp_path):
    doc = {
        "schema": "secatm-model/1",
        "coeff": "Q",
        "spaces": {"sigma2": {"construct": "orientable_surface", "genus": 2}},
    }
    path = tmp_path / "surfaces.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestBounds:
    def test_distance_table(self, u2_file, capsys):
        rc = main(["bounds", u2_file, "idinv", "dm", "1..4"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [ln for ln in out.splitlines() if ln.strip().startswith("m=")]
        values = [ln.split()[1:3] for ln in lines]
        assert [v[1] for v in values] == ["1", "1", "2", "2"]

    def test_surface_tc_all_exact(self, surfaces_file, capsys):
        rc = main(["bounds", surfaces_file, "sigma2", "tc", "1..6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("= 4") == 6

    def test_queries_from_file(self, u2_file, capsys):
        rc = main(["bounds", u2_file])
        out = capsys.readouterr().out
        assert rc == 0 and "dm[idinv]" in out

    def test_unknown_target_is_a_validation_error(self, u2_file, capsys):
        rc = main(["bounds", u2_file, "nosuch", "dm"])
        err = capsys.readouterr().err
        assert rc == 1 and "nosuch" in err

    def test_kind_mismatch_is_a_validation_error(self, u2_file, capsys):
        rc = main(["bounds", u2_file, "u2", "secat"])
        assert rc == 1

    def test_inconsistent_model_exit_code(self, tmp_path, capsys):
        doc = base_doc(
            spaces={
                "cp2": {"construct": "complex_projective", "n": 2, "known_tc": 3}
            }
        )
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        rc = main(["bounds", str(path), "cp2", "tc"])
        err = capsys.readouterr().err
        assert rc == 2 and "inconsistent" in err

    def test_json_output_round_trips(self, u2_file, capsys):
        rc = main(["bounds", u2_file, "idinv", "hdm", "1..4", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        data = json.loads(out)
        assert table_to_json(table_from_json(data), None) != {}
        rebuilt = table_from_json(data)
        ms = [1, 2, 3, 4]
        again = table_to_json(rebuilt, ms)
        assert again["entries"] == data["entries"]

    def test_certificates_flag(self, u2_file, capsys):
        rc = main(["bounds", u2_file, "idinv", "hdm", "1..4", "--certificates"])
        out = capsys.readouterr().out
        assert rc == 0 and "witness" in out

    def test_byte_identical_across_runs(self, u2_file, capsys):
        main(["bounds", u2_file, "idinv", "dm", "1..8", "--certificates"])
        first = capsys.readouterr().out
        main(["bounds", u2_file, "idinv", "dm", "1..8", "--certificates"])
        second = capsys.readouterr().out
        assert first == second

    def test_no_literature_flag(self, tmp_path, capsys):
        doc = base_doc(
            spaces={"rp4": {"construct": "real_projective", "n": 4}}
        )
        path = tmp_path / "rp4.json"
        path.write_text(json.dumps(doc))
        rc = main(["bounds", str(path), "rp4", "cat", "1..2", "--no-literature"])
        out = capsys.readouterr().out
        assert rc == 0 and "[4, inf)" in out

    def test_max_m_flag(self, surfaces_file, capsys):
        rc = main(["bounds", surfaces_file, "sigma2", "cat", "--max-m", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "m=2" in out and "m=3" not in out

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_m_below_one_is_a_usage_error(self, u2_file, capsys, value):
        rc = main(["bounds", u2_file, "idinv", "hdm", "--max-m", value])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.strip() == "error: --max-m must be >= 1"
        assert captured.out == ""

    def test_coeff_override_flag(self, tmp_path, capsys):
        doc = base_doc(spaces={"s2": {"construct": "sphere", "n": 2}})
        path = tmp_path / "s2.json"
        path.write_text(json.dumps(doc))
        rc = main(["bounds", str(path), "s2", "cat", "1..2", "--coeff", "F2"])
        assert rc == 0
        assert "= 1" in capsys.readouterr().out


class TestShippedModels:
    def test_sample_files_compute(self, capsys):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent / "models"
        for name in ("u2.json", "covers.json"):
            rc = main(["bounds", str(root / name)])
            out = capsys.readouterr().out
            assert rc == 0 and "m=1" in out


class TestValidate:
    def test_valid_file(self, u2_file, capsys):
        rc = main(["validate", u2_file])
        out = capsys.readouterr().out
        assert rc == 0 and out.strip().endswith("ok")

    def test_invalid_file(self, tmp_path, capsys):
        doc = base_doc(
            spaces={
                "bad": {
                    "algebra": {
                        "basis": {"0": ["1"], "1": ["x", "y"], "2": ["u"]},
                        "products": [["x", "y", {"u": 1}], ["y", "x", {"u": 1}]],
                    }
                }
            }
        )
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = main(["validate", str(path)])
        err = capsys.readouterr().err
        assert rc == 1 and "'x'" in err


class TestPaperSuite:
    def test_full_suite_passes(self, capsys):
        rc = main(["paper-suite"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "11/11 cases match" in out

    def test_json_report(self, capsys):
        rc = main(["paper-suite", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert all(case["ok"] for case in report["cases"])

    def test_tampered_expectation_is_caught_and_named(self):
        from secatm.goldens import all_cases, evaluate_case, GoldenCase

        case = next(c for c in all_cases() if c.name == "complex_projective_tc")

        def tampered():
            bundle, targets, expected = case.build()
            expected[("tc", "cp2")][2] = (5, 5)  # wrong on purpose
            return bundle, targets, expected

        mismatches, _ = evaluate_case(GoldenCase(case.name, tampered))
        assert mismatches and "cp2" in mismatches[0]
