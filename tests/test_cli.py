"""Command-line surface: golden outputs, exit codes, and round trips."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skewenergy import cli
from skewenergy.cli import main

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = [
    (["charpoly", "--construct", "o-plus", "--n", "6", "--m", "7"], "charpoly_oplus_6_7.txt"),
    (["energy", "--construct", "o-plus", "--n", "6", "--m", "7"], "energy_oplus_6_7.txt"),
    (["energy", "--construct", "cycle-odd", "--n", "4", "--emit", "json"], "energy_c4odd_json.txt"),
    (["compare", "o-plus:6:7", "b-plus:6:7"], "compare_oplus_bplus_6_7.txt"),
    (["construct", "--name", "b-plus", "--n", "5", "--m", "5"], "construct_bplus_5_5.txt"),
    (["verify", "--n", "5", "--m", "5"], "verify_5_5.txt"),
    (["verify", "--n", "6", "--m", "7", "--emit", "tsv"], "verify_6_7_tsv.txt"),
    (["verify-oracle", "--construct", "o-plus", "--n", "6", "--m", "7"], "verify_oracle_oplus_6_7.txt"),
    (["crossover", "--n", "7"], "crossover_7.txt"),
    (["crossover", "--n", "7", "--emit", "json"], "crossover_7_json.txt"),
]


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES, ids=[g for _, g in GOLDEN_CASES])
def test_golden_output(argv, golden, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / golden).read_text()


ENERGY_CASES = [case for case in GOLDEN_CASES if case[0][0] == "energy"]


@pytest.mark.parametrize("argv,golden", ENERGY_CASES, ids=[g for _, g in ENERGY_CASES])
@pytest.mark.parametrize("shift", [1, -1, 8, -8, 64, -64])
def test_energy_golden_survives_last_bit_noise(argv, golden, shift, capsys, monkeypatch):
    """An integral a few ulp off, as on another machine, prints the same text."""
    report = cli.energy_report

    def shifted(g, tol):
        rep = report(g, tol=tol)
        integral = rep.integral + shift * math.ulp(rep.integral)
        return dataclasses.replace(
            rep, integral=integral, discrepancy=abs(rep.spectral - integral)
        )

    monkeypatch.setattr(cli, "energy_report", shifted)
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


@pytest.mark.parametrize("argv,golden", GOLDEN_CASES[:4], ids=[g for _, g in GOLDEN_CASES[:4]])
def test_repeat_invocations_are_byte_identical(argv, golden, capsys):
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


class TestExitCodes:
    def test_parse_error_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.graph"
        bad.write_text("3 1\n0 3\n")
        assert main(["charpoly", "--file", str(bad)]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_is_3(self, capsys):
        assert main(["charpoly", "--file", "/nonexistent/x.graph"]) == 3

    def test_directory_as_file_is_3(self, tmp_path, capsys):
        assert main(["charpoly", "--file", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "internal error" not in err

    def test_file_that_is_not_text_is_3(self, tmp_path, capsys):
        binary = tmp_path / "binary.graph"
        binary.write_bytes(b"3 2\n0 1\n\xff\xfe\x00\x81\n")
        assert main(["charpoly", "--file", str(binary)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_domain_error_is_4(self, capsys):
        assert main(["verify", "--n", "6", "--m", "8"]) == 4
        assert "open boundary" in capsys.readouterr().err
        assert main(["construct", "--name", "o-plus", "--n", "4", "--m", "4"]) == 4
        assert main(["charpoly", "--construct", "o-plus", "--n", "6"]) == 4

    @pytest.mark.parametrize("tol", ["inf", "nan", "1e-320", "1e-200"])
    def test_unreachable_tolerance_is_4(self, tol, capsys):
        assert main(["energy", "--construct", "star", "--n", "5", "--tol", tol]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least 2^-48" in captured.err

    @pytest.mark.parametrize("name", ["star", "path", "cycle-odd", "cycle-even"])
    def test_arc_count_for_a_fixed_construction_is_4(self, name, capsys):
        # the arcs of these constructions follow from n; a given m would be ignored
        for argv in (
            ["energy", "--construct", name, "--n", "6", "--m", "3"],
            ["charpoly", "--construct", name, "--n", "6", "--m", "6"],
            ["construct", "--name", name, "--n", "6", "--m", "3"],
            ["compare", f"{name}:6:3", "path:6"],
            ["compare", "path:6", f"{name}:6:6"],
        ):
            assert main(argv) == 4, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"{name} takes no --m" in captured.err

    @pytest.mark.parametrize("spec", ["o-plus:6:7:9", "b-plus:6:7:0", "star:6:5:4", "path:5:4:3:2"])
    def test_spec_with_more_than_two_numbers_is_4(self, spec, capsys):
        assert main(["compare", spec, "star:6"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "more than two numbers" in captured.err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["charpoly", "--construct", "o-plus"], "--construct o-plus needs --n"),
            (["compare", "o-plus:x", "b-plus:6:7"], "malformed construction spec 'o-plus:x'"),
        ],
        ids=["no-n", "malformed-spec"],
    )
    def test_incomplete_construction_is_4(self, argv, message, capsys):
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_usage_error_is_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["charpoly", "--bogus"])
        assert exc.value.code == 2

    def test_verify_rejects_jobs(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "6", "--m", "6", "--jobs", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "target,exc,argv",
        [
            ("verify_theorem_1", ZeroDivisionError, ["verify", "--n", "5", "--m", "5"]),
            ("energy_report", ArithmeticError, ["energy", "--construct", "star", "--n", "3"]),
        ],
        ids=["verify", "energy"],
    )
    def test_unexpected_exception_is_5(self, target, exc, argv, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise exc("boom")

        monkeypatch.setattr(cli, target, crash)
        assert main(argv) == 5
        assert f"internal error: {exc.__name__}: boom" in capsys.readouterr().err

    def test_verify_oracle_fails_on_a_wrong_a4(self, capsys, monkeypatch):
        # the per-index rows all match; only the a4-bound row is wrong
        right = cli.a4_bound_check

        def wrong(g):
            b = right(g)
            return dataclasses.replace(b, a4=b.a4 + 4)

        monkeypatch.setattr(cli, "a4_bound_check", wrong)
        argv = ["verify-oracle", "--construct", "o-plus", "--n", "6", "--m", "7"]
        assert main(argv) == cli.EXIT_VERIFY_FAILED
        rows = capsys.readouterr().out.splitlines()
        assert all(row.endswith("\ttrue") for row in rows[1:-1])
        assert rows[-1] == "a4-bound\t4\ta4=8\ttight=true"

    def test_source_must_be_unique(self, tmp_path, capsys):
        p = tmp_path / "g.graph"
        p.write_text("2 1\n0 1\n")
        assert main(["charpoly", "--file", str(p), "--construct", "star", "--n", "3"]) == 4
        assert main(["charpoly"]) == 4


class TestRoundTrips:
    def test_construct_then_charpoly_file(self, tmp_path, capsys):
        assert main(["construct", "--name", "o-plus", "--n", "6", "--m", "7"]) == 0
        text = capsys.readouterr().out
        path = tmp_path / "oplus.graph"
        path.write_text(text)
        assert main(["charpoly", "--file", str(path)]) == 0
        assert capsys.readouterr().out == "6: 1 7 4 0\n"

    def test_compare_reads_files(self, tmp_path, capsys):
        a = tmp_path / "a.graph"
        a.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
        assert main(["compare", str(a), str(a)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("verdict\tEquivalent")

    def test_verify_json_is_valid(self, capsys):
        assert main(["verify", "--n", "6", "--m", "6"]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["verdict"] == "pass"
        assert cert["predicted"] == "O_plus"
        assert cert["min_coeffs"] == [1, 6, 3, 0]

    def test_stdin_source(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO("2 1\n0 1\n"))
        assert main(["charpoly", "--file", "-"]) == 0
        assert capsys.readouterr().out == "2: 1 1\n"

    def test_energy_of_k2_file(self, tmp_path, capsys):
        path = tmp_path / "k2.graph"
        path.write_text("2 1\n0 1\n")
        assert main(["energy", "--file", str(path), "--emit", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["spectral"] == 2.0
        assert abs(report["integral"] - 2.0) <= 1e-9
        assert report["tolerance_met"] is True


def test_module_entry_point():
    # the child finds the package where this process found it, installed or not
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "skewenergy", "charpoly", "--construct", "star", "--n", "5"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "5: 1 4 0\n"


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "exit codes" in out
