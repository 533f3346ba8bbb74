import json
import math
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


@pytest.mark.parametrize("scalars", ["exact", "float"])
@pytest.mark.parametrize("f, g, value", [("x^2", "2*x^3", {"exact": "1/4", "float": "0.25"}),
                                         ("(1+i)*x", "x^3", {"exact": "2-2*i", "float": "2-2*i"})])
def test_tame_prints_its_value_as_symbol_does(capsys, scalars, f, g, value):
    # not Python's complex repr, (0.25+0j) or (2-2j), which ccsym cannot read back
    flags = ["--f", f, "--g", g, "--algebra", f"gens=;degree=1;scalars={scalars}"]
    expected = (0, f"{value[scalars]}\n", "")
    assert run_cli(capsys, "tame", *flags) == run_cli(capsys, "symbol", *flags) == expected


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


@pytest.mark.parametrize(
    "algebra, message",
    [
        ("gens=x;degree=2", "x is the variable of series and functions, not a generator name"),
        ("gens=eps,x;degree=3", "x is the variable of series and functions, not a generator name"),
        ("gens=eps;degree=2;degree=3", "signature field 'degree' is given more than once"),
        ("gens=eps;gens=delta", "signature field 'gens' is given more than once"),
        ("scalars=exact; gens=eps ;scalars=float", "signature field 'scalars' is given more than once"),
    ],
    ids=["x", "x-second", "degree-twice", "gens-twice", "scalars-twice"],
)
def test_a_generator_named_x_or_a_repeated_signature_field_exits_2(capsys, algebra, message):
    # --algebra "gens=x;degree=2" used to print 1: the series read x as the variable, never the generator
    code, out, err = run_cli(capsys, "symbol", "--algebra", algebra, "--f", "1+x", "--g", "x")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "f, message",
    [("1²", "unexpected character '²' at position 1"), ("x^٣", "unexpected character '٣' at position 2")],
    ids=["superscript-two", "arabic-indic-three"],
)
def test_number_literals_take_ascii_digits_only(capsys, f, message):
    # str.isdigit counts both as digits: 1² then failed in int() as "too long", and x^٣ read as x^3
    code, out, err = run_cli(capsys, "symbol", "--f", f, "--g", "x", "--trunc", "4")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_a_generator_named_i_is_kept(capsys):
    # where i is a generator, an element or series reads i as it, as with eps in test_symbol_command
    code, out, _ = run_cli(capsys, "symbol", "--algebra", "gens=i;degree=2", "--f", "(1-i*x^-1)", "--g", "(1-x)")
    assert (code, out) == (0, "1+i\n")


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


def run_cli_process(*argv, timeout=None, module="ccsym.cli"):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ccsym.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env, timeout=timeout
    )


def test_python_dash_m_ccsym_runs_the_command_line():
    ok = run_cli_process("verify", "weil", "--f", "(x)", "--g", "(1-x)", "--trunc", "8", module="ccsym", timeout=60)
    assert ok.returncode == 0 and ok.stdout.startswith("[PASS] weil-reciprocity") and not ok.stderr
    bad = run_cli_process("verify", "weil", "--f", "(x", "--g", "(1-x)", module="ccsym", timeout=60)
    assert bad.returncode == 2 and not bad.stdout
    assert bad.stderr.startswith("error:") and bad.stderr.count("\n") == 1


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


@pytest.mark.parametrize(
    "argv",
    [
        ["symbol", "--f", "2^100000", "--g", "x", "--trunc", "4"],
        ["symbol", "--f", "2^4000000", "--g", "x", "--trunc", "4"],
        ["symbol", "--f", "(2^1000)^1000", "--g", "x", "--trunc", "4"],
        ["verify", "weil", "--f", "2^100000*x", "--g", "(1-x)"],
        ["symbol", "--f", "1" * 5000, "--g", "x", "--trunc", "4"],
    ],
    ids=["power", "huge-power", "nested-power", "ratfunc-power", "long-literal"],
)
def test_oversized_numbers_exit_2_promptly(argv):
    proc = run_cli_process(*argv, timeout=30)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_integrate_float_backend_affine_factor(capsys):
    float_algebra = "gens=;degree=1;scalars=float"
    for center, value in (("0", 0j), ("1", 2j * math.pi)):
        code, out, _ = run_cli(
            capsys, "integrate", "--f", "(x-1)", "--path", f"circle({center},1/2)",
            "--algebra", float_algebra, "--steps", "64", "--json",
        )
        assert code == 0
        assert abs(complex(*json.loads(out).get("1", (0, 0))) - value) < 1e-9


def test_power_of_a_plain_factor_parses_promptly():
    # a plain factor has no perturbation polynomials, so its power only
    # scales a multiplicity; n = -1024 took about 34 s when it had
    proc = run_cli_process(
        "integrate", "--f", "(x-1/3)^-1024", "--path", "circle(1/3,1/4)",
        "--algebra", "gens=eps;degree=2;scalars=exact", "--steps", "8", "--json", timeout=30,
    )
    assert proc.returncode == 0
    value = complex(*json.loads(proc.stdout)["1"])
    assert abs(value - -1024 * 2j * math.pi) <= 1e-9 * 1024 * 2 * math.pi


def test_lemma_3_3_on_a_shifted_power(capsys):
    # sampled as a degree-32 polynomial, Horner's rule loses every digit
    # of the perturbation to cancellation; the binomial power keeps degree 1
    code, out, _ = run_cli(
        capsys, "verify", "lemma", "--id=3.3", "--f", "(x-1/3+eps)^32", "--center=1/3", "--radius=1/4",
        "--algebra", "gens=eps;degree=2;scalars=exact", "--steps", "256", "--tol", "1e-8", "--json",
    )
    assert code == 0
    assert json.loads(out)["pass"]


def test_power_of_a_shifted_factor_parses_promptly():
    proc = run_cli_process(
        "integrate", "--f", "(x-1/3+eps)^-4096", "--path", "circle(1/3,1/4)",
        "--algebra", "gens=eps;degree=2;scalars=exact", "--steps", "8", "--json", timeout=30,
    )
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert abs(complex(*out["1"]) - -4096 * 2j * math.pi) <= 1e-9 * 4096 * 2 * math.pi
    assert abs(complex(*out["eps"])) <= 1e-9 * 4096 * 2 * math.pi


def test_power_inside_a_sum_is_rejected_before_it_is_expanded():
    proc = run_cli_process(
        "integrate", "--f", "(x-1/3+eps)^4096+0", "--path", "circle(1/3,1/4)",
        "--algebra", "gens=eps;degree=2;scalars=exact", "--steps", "8", timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "reduction of degree 4096" in proc.stderr


def test_float_reciprocal_of_a_large_residue_fails_cleanly(capsys):
    # f(base) is about 1e-192; its float reciprocal must stay finite, so the
    # check reports a failure (exit 1) instead of crashing
    code, out, err = run_cli(
        capsys, "verify", "lemma", "--id", "3.6", "--f", "(x-1/3)^64", "--base", "1/3+1/1000",
        "--point", "1", "--steps", "64",
    )
    assert code == 1
    assert out.startswith("[FAIL] lemma-3.6") and not err


def test_sum_above_the_degree_cap_is_rejected_before_it_is_expanded():
    # the top terms may cancel, so only the cap keeps the degree-4096 powers unexpanded
    proc = run_cli_process(
        "integrate", "--f", "(x-1/3+eps)^4096-(x-1/3)^4096+x", "--path", "circle(1/3,1/4)",
        "--algebra", "gens=eps;degree=2;scalars=exact", "--steps", "8", timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "degree up to 4096" in proc.stderr and "(a sum may reach degree 64)" in proc.stderr


def test_sum_with_a_nilpotent_term_above_the_degree_cap_is_rejected():
    # eps * (...)^4096 has a zero reduction, so its degree shows only as it is built
    argv = ["--path", "circle(1/3,1/4)", "--algebra", "gens=eps;degree=2;scalars=exact", "--steps", "8"]
    proc = run_cli_process("integrate", "--f", "eps*(x-1/3+eps)^4096+1", *argv, timeout=30)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "(a sum may reach degree 64)" in proc.stderr
    assert run_cli_process("integrate", "--f", "eps*(x-1/3+eps)^64+1", *argv, timeout=30).returncode == 0


def test_truncation_below_a_valuation_names_the_needed_trunc(capsys):
    argv = ["verify", "weil", "--f", "x^20", "--g", "(1-x)", "--algebra", "gens=eps;degree=2;scalars=exact"]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "--trunc" in err and err.count("\n") == 1
    code, _, _ = run_cli(capsys, *argv, "--trunc", "24")
    assert code == 0
