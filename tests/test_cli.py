import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from secatm import cli
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


class TestJsonBytes:
    """``--json`` prints the bytes of ``json.dumps(payload, indent=2,
    sort_keys=True)`` and a newline, the payload taken from what the
    command built (``table_to_json`` per query, ``run_suite``'s report)."""

    @staticmethod
    def built(monkeypatch, name):
        from secatm import cli

        payloads = []
        original = getattr(cli, name)

        def recording(*args, **kwargs):
            payloads.append(original(*args, **kwargs))
            return payloads[-1]

        monkeypatch.setattr(cli, name, recording)
        return payloads

    def assert_bytes(self, monkeypatch, capsys, argv, name="table_to_json"):
        payloads = self.built(monkeypatch, name)
        assert main(argv) == 0
        out = capsys.readouterr().out
        payload = payloads[0] if len(payloads) == 1 else payloads
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        return payloads

    @pytest.mark.parametrize("name", ["u2.json", "covers.json"])
    def test_shipped_models(self, monkeypatch, capsys, name):
        path = str(Path(__file__).resolve().parent.parent / "models" / name)
        assert len(self.assert_bytes(monkeypatch, capsys, ["bounds", path, "--json"])) == 2

    def test_several_queries_and_non_ascii_names(self, monkeypatch, capsys, tmp_path):
        doc = base_doc(
            spaces={"s2": {"construct": "sphere", "n": 2},
                    "\u03a3\u2082 \"tab\"\t": {"construct": "orientable_surface", "genus": 2}},
            queries=[{"target": "s2", "invariant": "cat"},
                     {"target": "\u03a3\u2082 \"tab\"\t", "invariant": "tc", "m": "1..3"},
                     {"target": "s2", "invariant": "tc", "m": "2"}])
        path = tmp_path / "several.json"
        path.write_text(json.dumps(doc))
        payloads = self.assert_bytes(monkeypatch, capsys, ["bounds", str(path), "--json"])
        assert len(payloads) == 3
        self.assert_bytes(monkeypatch, capsys, ["bounds", str(path), "s2", "tc", "--json"])

    def test_paper_suite(self, monkeypatch, capsys):
        self.assert_bytes(monkeypatch, capsys, ["paper-suite", "--json"], "run_suite")


class TestKeptParser:
    """One process builds the parser once and reuses it: no call leaves
    state on it that a later call sees."""

    @staticmethod
    def fresh(argv, capsys) -> tuple:
        """Exit code, stdout and stderr of ``main(argv)`` as the first call
        of a process, its parser built anew."""
        cli._build_parser.cache_clear()
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_calls_in_one_process_build_one_parser(self, monkeypatch, u2_file, capsys):
        built = []
        monkeypatch.setattr(cli, "argparse", SimpleNamespace(
            ArgumentParser=lambda **kw: built.append(kw) or argparse.ArgumentParser(**kw)))
        cli._build_parser.cache_clear()
        assert main(["bounds", u2_file, "idinv", "dm", "1..2", "--json"]) == 0
        assert main(["validate", u2_file]) == 0
        assert len(built) == 1 and built[0]["prog"] == "secatm"

    def test_a_usage_error_leaves_the_next_call_unchanged(self, u2_file, capsys):
        argv = ["bounds", u2_file, "idinv", "dm", "1..4", "--json"]
        alone = self.fresh(argv, capsys)
        code, out, err = self.fresh(["bounds", u2_file, "idinv", "nosuch"], capsys)
        assert code == 2 and out == "" and "invalid choice: 'nosuch'" in err
        assert main(argv) == 0
        assert (0, capsys.readouterr().out, "") == alone

    def test_a_json_call_leaves_the_next_call_in_text(self, u2_file, capsys):
        argv = ["bounds", u2_file, "idinv", "dm", "1..4"]
        code, text, _ = self.fresh(argv, capsys)
        assert code == 0 and text.startswith("dm[idinv]")
        assert main(argv + ["--json"]) == 0
        json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        assert capsys.readouterr().out == text

    def test_help_is_the_fresh_parsers_help(self, capsys):
        helps = []
        for _ in range(2):
            with pytest.raises(SystemExit) as e:
                main(["--help"])
            assert e.value.code == 0
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1] == cli._build_parser.__wrapped__().format_help()


class TestShippedModels:
    def test_sample_files_compute(self, capsys):
        import pathlib

        root = pathlib.Path(__file__).resolve().parent.parent / "models"
        for name in ("u2.json", "covers.json"):
            rc = main(["bounds", str(root / name)])
            out = capsys.readouterr().out
            assert rc == 0 and "m=1" in out


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
    def test_reader_closing_the_pipe_early_leaves_no_traceback(self, fmt, unbuffered):
        # about 90 KB of text or 1.2 MB of JSON, past a pipe buffer, so the
        # writes after the reader has gone fail with a broken pipe; with
        # unbuffered stdout the cut write is not reported, and the final
        # newline's write must fail instead
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "secatm", "bounds", str(root / "models" / "u2.json"),
             "idinv", "hdm", *fmt, "--max-m", "2000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert proc.stdout.read(100).startswith(b"{" if fmt else b"hdm[idinv]")
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 1
        assert err == b""


class TestLargeMaxM:
    def test_memory_does_not_grow_with_max_m(self, capsys):
        # every table of covers.json stabilizes by m = 8, so a million rows
        # cost what 64 do
        import pathlib
        import tracemalloc

        covers = str(pathlib.Path(__file__).resolve().parent.parent / "models" / "covers.json")
        argv = ["bounds", covers, "rp4", "tc", "1..4", "--max-m"]
        assert main(argv + ["64"]) == 0  # warm caches and imports untraced
        capsys.readouterr()
        peaks, outs = [], []
        for max_m in ("64", "1000000"):
            tracemalloc.start()
            try:
                assert main(argv + [max_m]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            outs.append(capsys.readouterr().out)
        assert peaks[1] <= 2 * peaks[0], peaks
        assert outs[0] == outs[1] and outs[0].count("= 7") == 4


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

    # m is bounded by MAX_M: a larger m used to end in a MemoryError
    # traceback, from listing an m range or storing a row per m of hdm

    def test_query_m_range_above_the_bound_is_rejected(self, tmp_path, capsys):
        import pathlib

        covers = pathlib.Path(__file__).resolve().parent.parent / "models" / "covers.json"
        doc = json.loads(covers.read_text())
        doc["queries"][1]["m"] = "1..1099511627776"
        path = tmp_path / "covers.json"
        path.write_text(json.dumps(doc))
        assert main(["bounds", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: queries[1].m: ")
        assert "1000000" in captured.err and captured.out == ""

    # integers in text take ASCII digits only: int() reads " +1_0" as 10,
    # "٢" as 2 and "١..٣" as 1..3

    @pytest.mark.parametrize("text", [" 2", "+2", "1_0", "٢", "３", "١..٣"])
    def test_integers_in_text_take_ascii_digits_only(self, tmp_path, capsys, text):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(base_doc(queries=[{"target": "s2", "invariant": "cat"}])))
        label = "F" + text  # "F٢" and "F３" must not read as F2 and F3
        bad = {
            "degree": base_doc(spaces={"x": {"algebra": {"basis": {"0": ["1"], text: ["a"]}}}}),
            "m": base_doc(queries=[{"target": "s2", "invariant": "cat", "m": text}]),
            "coeff": base_doc(coeff=label),
            "space_coeff": base_doc(spaces={"x": {"construct": "sphere", "n": 2, "coeff": label}}),
        }
        for name, doc in bad.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        for argv, where in [
            (["bounds", str(tmp_path / "degree.json")], f"spaces.x.algebra.basis.{text}: "),
            (["bounds", str(tmp_path / "m.json")], "queries[0].m: "),
            (["bounds", str(path), "s2", "cat", text], "mrange: "),
            (["bounds", str(path), "--max-m", text], "--max-m: "),
            (["bounds", str(tmp_path / "coeff.json")], "coeff: "),
            (["bounds", str(tmp_path / "space_coeff.json")], "spaces.x.coeff: "),
            (["bounds", str(path), "--coeff", label], "--coeff: "),
        ]:
            assert main(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: {where}"), argv
            assert captured.out == ""

    def test_max_m_above_the_bound_is_a_usage_error(self, capsys):
        import pathlib

        u2 = str(pathlib.Path(__file__).resolve().parent.parent / "models" / "u2.json")
        assert main(["bounds", u2, "--max-m", "1099511627776"]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == "error: --max-m must be <= 1000000"
        assert captured.out == ""
