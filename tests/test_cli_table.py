"""The `verify` check table as the CLI sees it: input caps, flags that a
check does not take, the README examples, and a property test over argv
drawn from the table."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ccsym.algebra import parse_signature
from ccsym.checks import CHECKS
from ccsym.cli import CAPS, TARGETS, build_parser, check_caps, main, verify_flags

README = Path(__file__).resolve().parent.parent / "README.md"


def run_main(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_one_error_line(code, err):
    assert code == 2
    assert len([line for line in err.splitlines() if "error:" in line]) == 1, err


# -- caps ------------------------------------------------------------------------


MAX_DEGREE = CAPS["--algebra degree"][1]


def cap_argv(flag, value):
    """The cheapest argv that carries `flag=value`."""
    if flag == "--trunc":
        return ["symbol", "--f=x", "--g=x", f"--trunc={value}"]
    if flag == "--steps":
        return ["integrate", "--f=x", "--path=circle(0,1/2)", f"--steps={value}"]
    if flag == "--algebra degree":
        return ["verify", "weil", "--f=x", "--g=(1-x)", f"--algebra=gens=eps;degree={value}"]
    lemma = {"--r": ["--id=3.2"], "--n": ["--id=3.4", "--a=1/5"], "--j": ["--id=3.5", "--k=1", "--a=1/5", "--b=1/5"],
             "--k": ["--id=3.5", "--j=1", "--a=1/5", "--b=1/5"]}[flag]
    return ["verify", "lemma", *lemma, f"{flag}={value}", "--steps=1"]


@pytest.mark.parametrize("flag", sorted(CAPS))
def test_caps_are_inclusive_and_checked_before_any_work(flag):
    lo, hi = CAPS[flag]
    for value in (lo, hi):
        args = build_parser().parse_args(cap_argv(flag, value))
        check_caps(args, parse_signature(getattr(args, "algebra", "")))
    for value in (lo - 1, hi + 1):
        code, out, err = run_main(cap_argv(flag, value))
        assert_one_error_line(code, err)
        if flag != "--algebra degree" or value > lo:  # degree 0 fails in the signature itself
            assert out == "" and f"{flag} must lie in {lo}..{hi}" in err


def test_trunc_zero_names_the_flag():
    code, _, err = run_main(["factorize", "--f=(1-x)", "--trunc=0"])
    assert_one_error_line(code, err)
    assert "--trunc" in err


# -- no silently dropped input ----------------------------------------------------


def test_radius_with_imaginary_part_is_rejected():
    argv = ["verify", "main-theorem", "--f=x", "--g=(1-x)", "--point=0", "--base=-1/2", "--steps=8"]
    assert run_main(argv + ["--radius=1/4"])[0] in (0, 1)
    code, out, err = run_main(argv + ["--radius=1/4+i"])
    assert_one_error_line(code, err)
    assert out == "" and "--radius must be a positive real number" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--id=3.2", "--r=2", "--f=x"], "--f"),
        (["--id=3.4", "--n=1", "--a=1/5", "--b=1/5"], "--b"),
        (["--id=3.6", "--f=x", "--base=1", "--point=2", "--radius=1/2"], "--radius"),
    ],
)
def test_lemma_flag_that_the_id_does_not_take_is_rejected(argv, flag):
    code, out, err = run_main(["verify", "lemma", *argv, "--steps=8"])
    assert_one_error_line(code, err)
    assert out == "" and f"does not take {flag}" in err


def test_missing_lemma_flag_is_named():
    code, _, err = run_main(["verify", "lemma", "--id=3.5", "--j=1", "--k=-1", "--a=1/5"])
    assert_one_error_line(code, err)
    assert err.strip() == "error: id 3.5 needs --b"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "lemma", "--id=3.2", "--r=2", "--radius=10^400"],
        ["verify", "lemma", "--id=3.6", "--f=x", "--base=10^400", "--point=1"],
        ["integrate", "--f=x", "--path=circle(10^400,1)"],
        ["verify", "lemma", "--id=3.3", "--f=x", "--radius=10^2000"],
    ],
)
def test_numbers_too_large_for_a_float_are_input_errors(argv):
    code, out, err = run_main(argv + ["--steps=4"])
    assert_one_error_line(code, err)
    assert out == "" and "too large for a float" in err
    assert len(err) < 200, err


def test_float_backend_function_with_nilpotent_shift():
    argv = ["integrate", "--f=(x+eps)", "--path=circle(0,1/2)", "--steps=64"]
    code, out, _ = run_main(argv + ["--algebra=gens=eps;degree=2;scalars=float"])
    assert code == 0
    assert out == run_main(argv + ["--algebra=gens=eps;degree=2;scalars=exact"])[1]


# -- output format ---------------------------------------------------------------------


def test_lemma_32_prints_elements():
    code, out, _ = run_main(["verify", "lemma", "--id=3.2", "--r=2", "--steps=64"])
    assert code == 0
    lhs, rhs = re.search(r"lhs=(\S+) rhs=(\S+)", out).groups()
    assert rhs == "-19.7392088022"
    assert lhs.startswith("-19.7392088") and "j" not in lhs


# -- README examples ------------------------------------------------------------------


def readme_commands():
    """Every `ccsym ...` line of the README's code blocks, continuations joined."""
    commands, current, fenced = [], "", False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced:
            current += " " + line.strip()
            if current.endswith("\\"):
                current = current[:-1]
                continue
            if current.strip().startswith("ccsym "):
                commands.append(current.strip())
            current = ""
    return commands


def test_readme_examples_parse_against_the_table():
    commands = readme_commands()
    assert sum(c.startswith("ccsym verify ") for c in commands) >= len(TARGETS)
    for command in commands:
        args = build_parser().parse_args(shlex.split(command)[1:])
        check_caps(args, parse_signature(getattr(args, "algebra", "")))
        if args.command == "verify":
            check, values = verify_flags(args)
            assert set(values) == set(check.params)


# -- property test over the table ---------------------------------------------------------

GOOD = {
    "radius": ["1/4", "1/2", "1", "3/2"],
    "scalar": ["0", "-1/2", "1", "1/3+1/5*i", "-2"],
    "complex": ["-1/2", "1/4+1/10*i", "2"],
    "point": ["0", "1", "inf", "-1"],
    "element": ["1/5", "1/5*eps", "0", "i/10", "2"],
    "ratfunc": ["x", "(1-x)", "(x+eps)", "x^2*(x-2)^-1", "(x-1/2)", "(x+eps)^-3", "(x-1/2+eps)^7", "x^20"],
    "form": ["x", "(x-1)", "(1-x)"],
    "path": ["circle(0,1/2)", "circle(1,1/2,1/2)", "concat(seg(-i,-1/2*i),circle(0,1/2,3/4),seg(-1/2*i,-i))"],
}
BAD = {
    "radius": ["0", "-1/2", "1/4+i", "1/0", "nan", "10^400"],
    "scalar": ["x", "1/0", "(", "", "10^400*i"],
    "complex": ["q", "1/0", "", "10^400"],
    "point": ["x", "infinit", ""],
    "element": ["x", "1/0", "eps^-1", "(((("],
    "ratfunc": ["bogus(", "", "1/0", "(x-eps)^-1*(x-eps*2)", "0"],
    "form": ["", "0", "y"],
    "path": ["circle(0)", "line(1)", "seg(1,1)", "circle(0,0)"],
}


def pick(draw, good, bad):
    """Mostly a good value, now and then a bad one."""
    return draw(st.sampled_from(bad if draw(st.sampled_from(range(10))) == 5 else good))


def flag_value(draw, flag, kind):
    if f"--{flag}" in CAPS:
        lo, hi = CAPS[f"--{flag}"]
        return str(pick(draw, [v for v in range(max(lo, -3), min(hi, 4) + 1) if v], [lo - 1, hi + 1, 0]))
    return pick(draw, GOOD[kind], BAD[kind])


@st.composite
def verify_argv(draw):
    key = draw(st.sampled_from(sorted(CHECKS)))
    check = CHECKS[key]
    argv = ["verify", check.target] + ([f"--id={key}"] if key != check.target else [])
    for param in check.params:
        if draw(st.sampled_from(range(20))) != 5:  # now and then a required flag is missing
            argv.append(f"--{param.flag}={flag_value(draw, param.flag, param.kind)}")
    if check.target == "lemma" and draw(st.sampled_from(range(10))) == 5:  # a flag the id may not take
        other = draw(st.sampled_from([p for c in CHECKS.values() if c.target == "lemma" for p in c.params]))
        argv.append(f"--{other.flag}={flag_value(draw, other.flag, other.kind)}")
    if "algebra" in check.reads:
        gens = draw(st.sampled_from(["eps", "", "eps,delta"]))
        degree = pick(draw, [1, 2, 3], [MAX_DEGREE + 1])
        argv.append(f"--algebra=gens={gens};degree={degree};scalars={pick(draw, ['exact'], ['float'])}")
    if "trunc" in check.reads:
        argv.append(f"--trunc={pick(draw, [1, 4, 8, 12], [0, CAPS['--trunc'][1] + 1])}")
    if "steps" in check.reads:
        argv.append(f"--steps={pick(draw, [1, 2, 4, 8], [0, CAPS['--steps'][1] + 1])}")
        argv.append(f"--tol={pick(draw, ['1e-3', '1e-12'], ['nan', '-1', 'inf'])}")
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=150, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(verify_argv())
def test_cli_exit_codes_over_the_check_table(argv):
    code, _, err = run_main(argv)  # any exception but SystemExit escapes and fails the test
    assert code in (0, 1, 2)
    if code == 2:
        assert_one_error_line(code, err)
    assert "Traceback" not in err
