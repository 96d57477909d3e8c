import json
import subprocess
import sys
from pathlib import Path

import pytest

from inframono.cli import main
from helpers import LONG_LITERALS

GOLDEN = Path(__file__).parent / "golden"
# Across these, each of the 8 predicates comes out both true and false;
# the second and tenth are inhomogeneous.
CHECK_INPUTS = (
    "x1*x2*e1",
    "x1^3*e12 - 2*x2*x3*e3 + 1/2*x1",
    "x1 + x2*e12",
    "x1*e1 + x2*e2 + x3*e3",
    "x1^2*x2 - 1/3*x2^3",
    "x1^2*e1 - x2^2*e1 + 3/2*x3*x4*e1234",
    "x1^4",
    "x1*e1",
    "e123",
    "x1^2*e2 + x1",
    "x1*x2*x3*x4*e13",
    "x1 - x2*e12",
)
FAMILY = ("family", "--c1", "1", "--c2", "0", "--c3", "1", "--c4", "0", "--n", "2")
FAMILY_NON_HARMONIC = (
    "family", "--c1", "1.0", "--c2", "0.8", "--c3", "-0.6", "--c4", "0.5", "--n", "2.0"
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGolden:
    def test_decompose_document(self, capsys):
        code, out, err = run_cli(
            capsys, "decompose", "--m", "2", "--k", "2", "--format", "json", "x1^2"
        )
        assert code == 0 and err == ""
        assert out == (GOLDEN / "decompose_x1sq.json").read_text()

    def test_check_predicates(self, capsys):
        code, out, err = run_cli(capsys, "check", "--m", "2", "x1*x2*e1")
        assert code == 0 and err == ""
        assert out == (GOLDEN / "check_x1x2e1.txt").read_text()

    def test_check_file(self, capsys, tmp_path):
        source = tmp_path / "inputs.txt"
        source.write_text("\n".join(CHECK_INPUTS) + "\n")
        code, out, err = run_cli(capsys, "check", "--m", "4", "--file", str(source))
        assert code == 0 and err == ""
        assert out == (GOLDEN / "check_m4_file.txt").read_text()

    def test_dims_table(self, capsys):
        code, out, err = run_cli(capsys, "dims", "--m", "3", "--k", "4")
        assert code == 0 and err == ""
        assert out == (GOLDEN / "dims_m3_k4.txt").read_text()

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (("decompose", "--m", "2", "--k", "2", "x1^2"), "decompose_x1sq.txt"),
            (("tower", "--m", "3", "x1^4*e12"), "tower_m3_x1p4e12.txt"),
            (("almansi", "--m", "2", "x1*x2"), "almansi_m2_x1x2.txt"),
            (FAMILY + ("--format", "json"), "family_harmonic.json"),
            (FAMILY_NON_HARMONIC + ("--format", "json"), "family_non_harmonic.json"),
        ],
    )
    def test_text_output(self, capsys, argv, golden):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert out == (GOLDEN / golden).read_text()

    def test_family_labels(self, capsys):
        code, out, err = run_cli(
            capsys, "family", "--c1", "1", "--c2", "0", "--c3", "1", "--c4", "0", "--n", "2"
        )
        assert code == 0 and err == ""
        labels = [line.split(" = ")[0] for line in out.splitlines()]
        assert labels == [
            "sandwich_max_residual",
            "sandwich_max_relative",
            "laplacian_max_residual",
            "harmonic",
            "ode_max_residual",
        ]


class TestJsonStability:
    def test_repeated_runs_are_identical(self, capsys):
        _, first, _ = run_cli(capsys, "decompose", "--m", "3", "--format", "json", "x1^2*e12")
        _, second, _ = run_cli(capsys, "decompose", "--m", "3", "--format", "json", "x1^2*e12")
        assert first == second

    def test_key_order(self, capsys):
        _, out, _ = run_cli(capsys, "decompose", "--m", "2", "--format", "json", "x1*x2")
        doc = json.loads(out)
        assert list(doc) == ["m", "k", "input", "infra", "quotient", "layers", "checks"]
        assert list(doc["checks"]) == ["reconstruction", "sandwich_zero", "orthogonal"]


class TestSubcommands:
    def test_inner(self, capsys):
        code, out, _ = run_cli(capsys, "inner", "--m", "2", "x1^2", "x1^2")
        assert code == 0 and out == "2\n"

    def test_inner_fraction(self, capsys):
        code, out, _ = run_cli(capsys, "inner", "--m", "2", "1/2*x1*x2", "x1*x2")
        assert code == 0 and out == "1/2\n"

    def test_tower(self, capsys):
        code, out, _ = run_cli(capsys, "tower", "--m", "2", "--format", "json", "x1^2")
        doc = json.loads(out)
        assert code == 0
        assert [layer["s"] for layer in doc["layers"]] == [0, 1]
        assert doc["layers"][0]["component"] == "1/2*x1^2 - 1/2*x2^2"
        assert doc["layers"][1]["component"] == "-1/2"
        assert doc["checks"]["reconstruction"] is True

    def test_almansi(self, capsys):
        code, out, _ = run_cli(capsys, "almansi", "--m", "2", "--format", "json", "x1*x2")
        doc = json.loads(out)
        assert code == 0
        assert doc["x_part"] == "-1/4*x1*e2 - 1/4*x2*e1"
        assert all(doc["checks"].values())

    def test_family_formatting(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "family",
            "--c1", "1", "--c2", "0", "--c3", "1", "--c4", "0", "--n", "2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[3] == "harmonic = true"
        assert lines[0].startswith("sandwich_max_residual = ")
        value = lines[0].split(" = ")[1]
        assert float(value) <= 1e-6

    def test_family_non_harmonic(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "family",
            "--c1", "1", "--c2", "1", "--c3", "1", "--c4", "1", "--n", "2",
            "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["harmonic"] is False
        assert doc["laplacian_max_residual"] >= 1e-2

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "polys.txt"
        path.write_text("x1^2\nx1*x2\n")
        code, out, _ = run_cli(capsys, "check", "--m", "2", "--file", str(path))
        assert code == 0
        assert out.count("inframonogenic:") == 2

    def test_file_with_byte_order_mark(self, capsys, tmp_path):
        text = "\n".join(CHECK_INPUTS) + "\n"
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        expected = run_cli(capsys, "check", "--m", "4", "--file", str(plain))
        assert expected[0] == 0
        assert run_cli(capsys, "check", "--m", "4", "--file", str(marked)) == expected

    def test_inner_from_file(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("x1^2\nx1^2\n")
        code, out, _ = run_cli(capsys, "inner", "--m", "2", "--file", str(path))
        assert code == 0 and out == "2\n"


class TestExitCodes:
    def test_parse_error_is_two(self, capsys):
        code, out, err = run_cli(capsys, "check", "--m", "2", "x3")
        assert code == 2 and out == ""
        assert err == "error: variable index 3 out of range for m=2 (at position 0)\n"

    def test_parse_error_names_the_file_line(self, capsys, tmp_path):
        # blank lines are skipped but still counted
        path = tmp_path / "bad.txt"
        path.write_text("x1\n\nx1 + + x2\nx2\n")
        code, out, err = run_cli(capsys, "check", "--m", "2", "--file", str(path))
        assert code == 2 and out == ""
        assert err == "error: line 3: expected a factor, found '+' (at position 5)\n"

    def test_parse_error_names_the_argument(self, capsys):
        code, out, err = run_cli(capsys, "check", "--m", "2", "x1", "x3")
        assert code == 2 and out == ""
        assert err == "error: input 2: variable index 3 out of range for m=2 (at position 0)\n"

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int-string limit"
    )
    @pytest.mark.parametrize("text, position", LONG_LITERALS.values(), ids=LONG_LITERALS)
    def test_over_long_literal_is_two(self, capsys, text, position):
        code, out, err = run_cli(capsys, "check", "--m", "2", text)
        assert code == 2 and out == ""
        assert err.endswith(f"integer literal too long (at position {position})\n")

    def test_deep_groups_exit_zero(self, capsys):
        deep = "(" * 3000 + "x1" + ")" * 3000
        proc = subprocess.run(
            [sys.executable, "-m", "inframono", "check", "--m", "2", deep],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == run_cli(capsys, "check", "--m", "2", "x1")[1]

    def test_precondition_failure_is_one(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "--m", "2", "x1^2 + x1")
        assert code == 1 and "homogeneous" in err

    def test_degree_flag_mismatch_is_one(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "--m", "2", "--k", "3", "x1^2")
        assert code == 1 and "--k" in err

    def test_almansi_requires_harmonic(self, capsys):
        code, _, err = run_cli(capsys, "almansi", "--m", "2", "x1^2")
        assert code == 1 and "harmonic" in err

    def test_missing_input_is_one(self, capsys):
        code, _, err = run_cli(capsys, "inner", "--m", "2", "x1^2")
        assert code == 1

    @pytest.mark.parametrize("argv, message", [
        (("dims", "--m", "2", "--k", "-1"), "error: --k must be non-negative"),
        (("check", "--m", "2"), "error: no polynomial input given (positional argument or --file)"),
    ])
    def test_invalid_request_is_one(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert message in err

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--h", "nan"), "step"),
            (("--c1", "nan", "--format", "json"), "c1 must be finite"),
            (("--grid-side", "0"), "got 0"),
            (("--grid-side", "-2"), "got -2"),
            (("--tol", "nan"), "tolerance must be finite and non-negative, got nan"),
            (("--tol", "-1"), "tolerance must be finite and non-negative, got -1.0"),
            (("--h", "1e-200"), "error: step 1e-200 is too small: its square underflows to 0.0"),
            (("--h", "1e170"), "error: step 1e+170 is too large: 4 h^2 overflows to inf"),
            (
                ("--c2", "1", "--c3", "0", "--n", "1", "--h", "1e100"),
                "error: math range error at grid point (-1.0, -1.0) with step 1e+100",
            ),
        ],
    )
    def test_family_bad_numbers_are_one(self, capsys, extra, message):
        # a repeated option overrides the earlier one
        code, out, err = run_cli(capsys, *FAMILY, *extra)
        assert code == 1 and out == ""
        assert message in err

    def test_family_overflow_is_one(self):
        proc = subprocess.run(
            [sys.executable, "-m", "inframono", *FAMILY, "--n", "800"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    def test_file_and_positional_together_is_one(self, capsys, tmp_path):
        path = tmp_path / "polys.txt"
        path.write_text("x1^2\n")
        code, out, err = run_cli(capsys, "decompose", "--m", "2", "--file", str(path), "x2^2")
        assert code == 1 and out == ""
        assert str(path) in err and "'x2^2'" in err

    def test_missing_file_is_one(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--m", "2", "--file", "/nonexistent/path.txt")
        assert code == 1


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "inframono", "dims", "--m", "2", "--k", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "dim_infra(2, 2) = 8" in proc.stdout


def test_cli_runs_without_numpy():
    # numpy is no runtime dependency: a None entry makes any import of it fail
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from inframono.cli import main\n"
        f"sys.exit(main({list(FAMILY)!r}) or main(['check', '--m', '2', 'x1*x2*e1']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
