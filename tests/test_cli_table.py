"""The `verify` check table as the CLI sees it: input caps, flags that a
check does not take, the README examples, and a property test over argv
drawn from the table."""

import contextlib
import functools
import io
import json
import random
import re
import shlex
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ccsym import algebra
from ccsym.algebra import AlgebraSignature, parse_signature
from ccsym.checks import CHECKS
from ccsym.cli import CAPS, TARGETS, build_parser, check_caps, main, verify_flags
from ccsym.laurent import LaurentSeries
from ccsym.parsing import parse_series

from conftest import agrees_with, random_invertible_series

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
    if flag == "--algebra monomials":  # value - 1 generators at degree 2; none at degree 0
        gens = ",".join(f"e{i}" for i in range(value - 1))
        return ["verify", "weil", "--f=x", "--g=(1-x)", f"--algebra=gens={gens};degree={min(value, 2)}"]
    lemma = {"--r": ["--id=3.2"], "--n": ["--id=3.4", "--a=1/5"], "--j": ["--id=3.5", "--k=1", "--a=1/5", "--b=1/5"],
             "--k": ["--id=3.5", "--j=1", "--a=1/5", "--b=1/5"]}[flag]
    return ["verify", "lemma", *lemma, f"{flag}={value}", "--steps=1"]


@pytest.mark.parametrize("flag", sorted(CAPS))
def test_caps_are_inclusive_and_checked_before_any_work(flag):
    lo, hi = CAPS[flag]
    for value in (lo, hi):
        args = build_parser().parse_args(cap_argv(flag, value))
        parse_signature(getattr(args, "algebra", ""), functools.partial(check_caps, args))
    for value in (lo - 1, hi + 1):
        code, out, err = run_main(cap_argv(flag, value))
        assert_one_error_line(code, err)
        # degree 0 fails in the signature itself, and no algebra has 0 monomials
        if flag not in ("--algebra degree", "--algebra monomials") or value > lo:
            assert out == "" and f"{flag} must lie in {lo}..{hi}" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "lemma", "--id=3.4", "--n=1", "--a=a+b+c+d", "--steps=1"],
        ["verify", "main-theorem", "--f=(x+a)", "--g=(1-x)", "--point=0", "--base=-1/2", "--radius=1/4"],
        ["symbol", "--f=x", "--g=(1-x)"],
    ],
    ids=["lemma", "main-theorem", "symbol"],
)
def test_algebras_with_too_many_monomials_are_rejected_before_any_work(argv):
    # C(4 + 63, 4) = 766 480 monomials; building their product table alone took minutes
    code, out, err = run_main(argv + ["--algebra=gens=a,b,c,d;degree=64"])
    assert_one_error_line(code, err)
    assert out == "" and "--algebra monomials must lie in 1..256, got 766480" in err


def test_a_degree_past_its_cap_is_rejected_before_the_monomials_are_counted():
    # C(g + N - 1, g) for these g and N took about 24 s to compute
    gens = ",".join(f"g{i}" for i in range(100000))
    started = time.perf_counter()
    code, out, err = run_main(["symbol", "--f=x", "--g=x", f"--algebra=gens={gens};degree=1{'0' * 100}"])
    assert time.perf_counter() - started < 5
    assert_one_error_line(code, err)
    assert out == "" and "--algebra degree must lie in 1..64" in err


def test_a_command_the_caps_reject_keeps_no_signature():
    # the caps see the parsed generators and degree before the signature is
    # built, so a rejected algebra leaves nothing in the process-wide table
    before = len(algebra._SIGNATURES)
    gens = ",".join(f"g{i}" for i in range(300))
    for flag in (f"--algebra=gens={gens};degree=70", "--algebra=gens=a,b,c,d;degree=64"):
        code, out, err = run_main(["symbol", "--f=x", "--g=x", flag])
        assert_one_error_line(code, err)
        assert out == "" and "must lie in" in err
    assert len(algebra._SIGNATURES) == before


def test_trunc_zero_names_the_flag():
    code, _, err = run_main(["factorize", "--f=(1-x)", "--trunc=0"])
    assert_one_error_line(code, err)
    assert "--trunc" in err


EPS3 = "--algebra=gens=eps;degree=3;scalars=exact"
EPS2 = "--algebra=gens=eps;degree=2;scalars=exact"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "weil", EPS3, "--f=(x-1+eps)^3*(x-2)^-1", "--g=(x+eps)^-2*(x-1)", "--trunc=2"],
        ["verify", "weil", EPS2, "--f=x^20", "--g=(1-x)", "--trunc=16"],
        ["symbol", EPS2, "--f=eps*x^-5+1", "--g=1-x", "--trunc=4"],
        ["symbol", EPS2, "--f=eps/x^5+1", "--g=1-x", "--trunc=4"],
        # the division leaves f known below x^4 only: the hint names --trunc, not x^6
        ["symbol", EPS3, "--f=1/(x^2-eps)", "--g=1-x", "--trunc=12"],
        # the division leaves the series known below x^6: the error names --trunc 9, not the 6
        ["factorize", "--algebra=gens=eps,delta;degree=3;scalars=exact",
         "--f=(1-eps*x^-1-delta*x^-2)*(3+x)^-1", "--trunc=8"],
    ],
)
def test_a_short_truncation_names_the_trunc_that_suffices(argv):
    code, out, err = run_main(argv)
    assert_one_error_line(code, err)
    needed = re.search(r"--trunc (?:at least )?(\d+)", err)
    assert out == "" and needed, err
    assert run_main(argv[:-1] + [f"--trunc={needed.group(1)}"])[0] == 0


@pytest.mark.parametrize(
    "argv,needed",
    [
        (["factorize", "--f=x^2", "--trunc=2"], 3),
        (["symbol", "--f=x^2+x^3", "--g=x", "--trunc=2"], 3),
        (["tame", "--f=x", "--g=x^2+x^3", "--trunc=2"], 3),
        # the first unit term is x, at --trunc 2, but factorizing needs more
        (["factorize", EPS2, "--f=eps+x", "--trunc=1"], 4),
        # x^2 + eps cut below x^2 is eps, which has no inverse
        (["symbol", EPS2, "--f=1/(x^2+eps)", "--g=1-x", "--trunc=2"], 6),
        # the leading terms cancel, so the first unit term x is read from the series at the cap
        (["symbol", "--f=1/(1-x)-1", "--g=x", "--trunc=1"], 2),
    ],
)
def test_a_truncation_below_every_unit_term_names_the_trunc_that_suffices(argv, needed):
    code, out, err = run_main(argv)
    assert_one_error_line(code, err)
    assert out == "" and f"--trunc at least {needed}" in err and "not a unit" not in err, err
    assert run_main(argv[:-1] + [f"--trunc={needed}"])[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["factorize", EPS2, "--f=eps", "--trunc=2"],
        ["symbol", EPS2, "--f=eps", "--g=x", "--trunc=2"],
        ["symbol", EPS2, "--f=x", "--g=eps*x^-1+eps*x", "--trunc=2"],
    ],
)
def test_a_nilpotent_series_is_not_a_unit_at_any_truncation(argv):
    code, out, err = run_main(argv)
    assert_one_error_line(code, err)
    assert out == "" and "not a unit of A((x))" in err and "--trunc" not in err, err


@pytest.mark.parametrize(
    "argv,first",
    [
        (["symbol", "--f=x^300", "--g=x", "--trunc=2"], 300),
        (["factorize", "--f=x^300", "--trunc=2"], 300),
        (["tame", EPS2, "--f=x", "--g=x^299*(1-x)^-1+eps*x", "--trunc=256"], 299),
        (["symbol", EPS2, "--f=x^257/(x^2+x)^1", "--g=x", "--trunc=3"], 256),
    ],
)
def test_a_first_unit_term_past_the_trunc_cap_names_the_cap(argv, first):
    code, out, err = run_main(argv)
    assert_one_error_line(code, err)
    assert out == "" and "not a unit" not in err, err
    assert f"cap {CAPS['--trunc'][1]}" in err and f"x^{first}" in err, err


def test_a_series_inverted_below_x0_keeps_its_leading_one():
    # 1/(x-eps) known below x^3 is inverted with its m-adic correction known below x^0 only
    argv = ["symbol", EPS2, "--f=1/(x-eps)", "--g=1-x"]
    code, out, err = run_main(argv + ["--trunc=3"])
    assert code == 0, err
    assert out.strip() == "1-eps" == run_main(argv + ["--trunc=20"])[1].strip()


def test_factorize_of_a_unit_with_a_deep_nilpotent_term_needs_only_the_truncation():
    # eps*x^-5 once parsed as eps*x^-5+O(x^-3), and 1+eps*x^-5 as no unit at all
    code, _, err = run_main(["factorize", EPS2, "--f=eps*x^-5+1", "--trunc=4"])
    assert_one_error_line(code, err)
    assert "truncation order 4 too small" in err
    code, out, _ = run_main(["factorize", EPS2, "--f=eps*x^-5+1", "--trunc=30"])
    assert code == 0 and out.strip() == "1*(1+eps*x^-5)"


def test_factorize_of_a_deep_negative_factor_names_its_trunc_and_rebuilds_the_series():
    # the factors were once peeled one at a time: over eps;24 that ran for minutes, then
    # failed at --trunc 28 as "did not stabilize"
    algebra, f = "--algebra=gens=eps;degree=24;scalars=exact", "--f=(1+eps*x^-1)*(1-x)^-1"
    code, out, err = run_main(["factorize", algebra, f, "--trunc=24"])
    assert_one_error_line(code, err)
    assert out == "" and "--trunc at least 26" in err
    code, out, err = run_main(["factorize", algebra, f, "--trunc=28"])
    assert code == 0, err
    trunc_order = json.loads(run_main(["factorize", algebra, f, "--trunc=28", "--json"])[1])["trunc_order"]
    sig = parse_signature(algebra.split("=", 1)[1])
    series = parse_series(f.split("=", 1)[1], sig, 28)
    assert trunc_order > series.valuation()
    assert agrees_with(parse_series(out.strip(), sig, trunc_order), series, upto=trunc_order)


# -- every --trunc an error names is the least that works ----------------------------


def least_trunc_named(argv, given):
    """The --trunc that argv names at --trunc `given`, or None when it names
    none; a named N lies above `given` and within the cap, the command runs
    at N, and at N - 1, when that is above `given`, it names N again."""
    code, _, err = run_main(argv + [f"--trunc={given}"])
    if not (named := re.search(r"--trunc at least (-?\d+)", err)):
        return None
    need = int(named.group(1))
    assert_one_error_line(code, err)
    assert given < need <= CAPS["--trunc"][1], err
    code, _, err = run_main(argv + [f"--trunc={need}"])
    assert code == 0, err
    if need - 1 > given:
        code, _, err = run_main(argv + [f"--trunc={need - 1}"])
        assert code == 2 and f"--trunc at least {need}" in err, err
    return need


# an inverse or an x^-k factor lowers how far these series are known, and the
# unit-term and symbol stages each fall short at some --trunc in 1..11
PROBE_F = ["1/(x^2+eps)", "(1-eps*x^-1)", "(1+eps*x^-2)*(1-x)^-1", "1/(x^3+eps*x)", "(x+eps)^-2",
           "1/(x^2+eps*x+eps^2)", "(1-eps*x^-3)^-1*(2+x)", "x^5+eps", "1/(x^4+eps)"]


@pytest.mark.parametrize("argv", [["symbol", EPS3, f"--f={f}", f"--g={g}"] for f in PROBE_F
                                  for g in ("1-x", "(x-eps)^-1")] + [["factorize", EPS3, f"--f={f}"] for f in PROBE_F])
def test_every_trunc_named_on_the_probe_grid_is_the_least_that_works(argv):
    named = [least_trunc_named(argv, given) for given in range(1, 12)]
    assert any(named)


@st.composite
def short_series_argv(draw):
    """(argv without --trunc, a small --trunc) of `symbol`, `tame` or `factorize`
    on products of divisors 1/(x^k + c eps^j), x^-k and random series: units all."""
    command = draw(st.sampled_from(["symbol", "tame", "factorize"]))
    sig = AlgebraSignature(("eps",), 1 if command == "tame" else draw(st.integers(2, 3)))

    def factor():
        kind = draw(st.sampled_from(["divisor", "pole", "series"]))
        if kind == "divisor":
            c = draw(st.sampled_from(["+", "-2*", "+1/2*", "+i*"]))
            return f"1/(x^{draw(st.integers(1, 4))}{c}eps^{draw(st.integers(1, 2))})"
        if kind == "pole":
            return f"x^-{draw(st.integers(1, 3))}"
        series = random_invertible_series(random.Random(draw(st.integers(0, 2**32))), sig, 12)
        return str(LaurentSeries(sig, series.coeffs))

    def text():
        return "*".join(f"({factor()})" for _ in range(draw(st.integers(1, 2))))

    argv = [command, f"--algebra=gens=eps;degree={sig.truncation_degree}", f"--f={text()}"]
    return argv + ([] if command == "factorize" else [f"--g={text()}"]), draw(st.integers(1, 6))


@settings(max_examples=120, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(short_series_argv())
def test_a_unit_series_command_runs_or_names_the_least_trunc_that_works(case):
    argv, given = case
    code, _, err = run_main(argv + [f"--trunc={given}"])
    assert code == 0 or least_trunc_named(argv, given), err


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
        parse_signature(getattr(args, "algebra", ""), functools.partial(check_caps, args))
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
