import json
import os
import subprocess
import sys

import pytest

import ccsym
from ccsym.cli import main
from ccsym.parsing import MAX_DEPTH


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_symbol_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "symbol",
        "--algebra", "gens=eps;degree=2;scalars=exact",
        "--f", "(1-eps*x^-1)",
        "--g", "(1-x)",
        "--trunc", "8",
    )
    assert code == 0
    assert out.strip() == "1+eps"


def test_symbol_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "symbol",
        "--algebra", "gens=eps;degree=2;scalars=exact",
        "--f", "(1-eps*x^-1)",
        "--g", "(1-x)",
        "--json",
    )
    assert code == 0
    assert json.loads(out) == {"1": [1.0, 0.0], "eps": [1.0, 0.0]}


def test_tame_command(capsys):
    code, out, _ = run_cli(capsys, "tame", "--f", "x^2", "--g", "x^3")
    assert code == 0
    assert out.strip() == "1"
    code, out, _ = run_cli(capsys, "tame", "--f", "x", "--g", "x")
    assert out.strip() == "-1"


def test_factorize_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "factorize",
        "--algebra", "gens=eps;degree=2;scalars=exact",
        "--f", "(x+eps)",
        "--trunc", "8",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["nu"] == 1
    assert payload["neg_factors"] == {"-1": {"eps": [-1.0, 0.0]}}


def test_verify_lemma_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "lemma", "--id", "3.2", "--r", "2", "--radius", "1/2",
        "--steps", "512", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["check_id"] == "lemma-3.2"
    assert set(payload) == {
        "check_id", "inputs", "lhs", "rhs", "deviation", "tolerance", "pass", "runtime_ms",
    }


def test_verify_weil(capsys):
    code, out, _ = run_cli(capsys, "verify", "weil", "--f", "(x)", "--g", "(1-x)", "--trunc", "8")
    assert code == 0
    assert "[PASS]" in out and "lhs=1" in out


def test_verify_main_theorem(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "main-theorem",
        "--algebra", "gens=eps;degree=2;scalars=exact",
        "--f", "(x+eps)", "--g", "(1-x)",
        "--point", "0", "--base=-1/2", "--radius", "1/4",
        "--steps", "256", "--tol", "1e-6",
    )
    assert code == 0
    assert "[PASS] main-theorem" in out


def test_verify_commutator(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "commutator",
        "--alpha", "concat(seg(-i,-1/2*i),circle(0,1/2,3/4),seg(-1/2*i,-i))",
        "--beta", "concat(seg(-i,1-1/2*i),circle(1,1/2,3/4),seg(1-1/2*i,-i))",
        "--f", "x", "--g", "(x-1)",
        "--steps", "256", "--tol", "1e-6",
    )
    assert code == 0, out
    assert "[PASS] commutator-quadratic" in out


def test_verify_identities(capsys):
    code, out, _ = run_cli(capsys, "verify", "identities", "--steps", "128", "--tol", "1e-5")
    assert code == 0
    assert out.count("[PASS]") == 5


def test_input_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "symbol", "--f", "x", "--g", "bogus(")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "verify", "lemma", "--id", "3.2")  # missing --r
    assert code == 2


def test_check_failure_exit_code(capsys):
    # an impossible tolerance turns a passing check into exit code 1
    code, out, _ = run_cli(
        capsys,
        "verify", "lemma", "--id", "3.4", "--n", "-1", "--a", "1/5",
        "--radius", "1/2", "--steps", "8", "--tol", "1e-15",
    )
    assert code == 1
    assert "[FAIL]" in out


def test_integrate_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "integrate", "--f", "x", "--path", "circle(0,1/2)", "--steps", "256",
    )
    assert code == 0
    assert "6.28318" in out  # 2 pi i


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_non_finite_or_non_positive_tolerance_is_an_input_error(capsys, tol):
    code, out, err = run_cli(
        capsys,
        "verify", "lemma", "--id", "3.4", "--n", "1", "--a", "1/5",
        "--steps", "8", f"--tol={tol}",
    )
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [err.strip()]
    assert "tolerance" in err


def run_cli_process(*argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ccsym.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "ccsym.cli", *argv], capture_output=True, text=True, env=env
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["symbol", "--f", "(" * 1200 + "x" + ")" * 1200, "--g", "x"],
        ["symbol", "--f", "1" + "+x" * 1499, "--g", "x"],
        ["verify", "weil", "--f", "x" + "*x" * 1499, "--g", "x"],
        ["integrate", "--f", "x", "--path", "rev(" * 1200 + "circle(0,1)" + ")" * 1200],
    ],
    ids=["nested-parentheses", "flat-sum", "flat-product", "nested-path"],
)
def test_deep_expressions_exit_2_without_traceback(argv):
    proc = run_cli_process(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_expression_depth_limit_is_exact(capsys):
    flat = "1" + "+x" * (MAX_DEPTH - 1)  # MAX_DEPTH levels deep
    nested = "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH
    for text in (flat, nested):
        code, out, _ = run_cli(capsys, "symbol", "--f", text, "--g", "x", "--trunc", "4")
        assert code == 0 and out.strip()
    for text in ("x+" + flat, "(" + nested + ")"):
        code, _, err = run_cli(capsys, "symbol", "--f", text, "--g", "x", "--trunc", "4")
        assert code == 2 and "deeper than" in err
