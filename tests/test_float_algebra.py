"""A float algebra computes over Q(i) and widens what it prints: under
scalars=float, `symbol`, `tame`, `factorize`, `verify weil` and `verify
main-theorem` print the exact result, widened once."""

import contextlib
import io
import json
import random
from fractions import Fraction

import pytest

from ccsym.algebra import AlgebraSignature
from ccsym.cli import main
from ccsym.errors import CcsymError
from ccsym.laurent import factorize
from ccsym.parsing import parse_series
from ccsym.symbol import cc_symbol_series, tame_symbol

from conftest import _gaussian_text, bench_series_text, bench_weil_texts


def run_main(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def widened_output(compute):
    """What the CLI prints for the exact result compute() widens, or for the error it raises."""
    try:
        return 0, f"{compute()}\n", ""
    except CcsymError as exc:
        return 2, "", f"error: {exc}\n"


def without_runtime(out: str) -> dict:
    report = json.loads(out)
    report.pop("runtime_ms")
    return report


def test_float_factorize_at_high_degree_prints_the_widened_exact_factors():
    # the float series path printed 17 factors here, with rounding residues from eps^9 on in a0
    code, out, _ = run_main(["factorize", "--algebra=gens=eps;degree=24;scalars=float",
                             "--f=(1+eps*x^-1)*(1-x)^-1", "--trunc=50"])
    assert code == 0
    assert out == "1*(1+eps*x^-1)*(1+1*x)*(1+1*x^2)*(1+1*x^4)*(1+1*x^8)*(1+1*x^16)\n"


@pytest.mark.parametrize("gens, degree", [(("eps",), 4), (("eps", "delta"), 3), ((), 1)], ids=str)
def test_float_series_commands_print_the_widened_exact_results(gens, degree):
    exact = AlgebraSignature(gens, degree)
    algebra, trunc = f"--algebra={exact.to_float()}", 12
    rng = random.Random(f"float series commands {exact}")
    for _ in range(6):
        texts = [bench_series_text(rng, gens, degree) for _ in range(2)]
        f, g = (parse_series(text, exact, trunc) for text in texts)
        flags = [f"--f={texts[0]}", f"--g={texts[1]}", f"--trunc={trunc}", algebra]
        assert run_main(["symbol", *flags]) == widened_output(lambda: cc_symbol_series(f, g).widen())
        assert run_main(["factorize", flags[0], *flags[2:]]) == widened_output(lambda: factorize(f).widen())
        if degree == 1:
            assert run_main(["tame", *flags]) == widened_output(lambda: complex(tame_symbol(f, g)))


def test_float_main_theorem_prints_the_exact_report():
    # the left side is sampled in floats either way, and the right side is
    # the exact one widened; the float series path left residues in it
    rng = random.Random("float main-theorem")
    grid = [Fraction(k, 2) for k in range(-2, 3)]
    for gens in (("eps",), ("eps", "delta")):
        for _ in range(3):
            r1 = complex(rng.choice(grid), rng.choice(grid))
            u, d = rng.choice((1, -1, 1j, -1j)), rng.choice((1, 1.5, 2))
            r1, r2, r3, base = (_gaussian_text(Fraction(z.real), Fraction(z.imag))
                                for z in (r1, r1 + u * d, r1 + 2 * u * d, r1 - u * d / 2))
            shift = ["".join(f"+({Fraction(rng.randint(-3, 3), rng.randint(1, 3))})*{g}" for g in gens) for _ in range(3)]
            f, g = f"(1/3-i)*(x-{r1}{shift[0]})^2*(x-{r3})^-1", f"(x-{r2}{shift[1]})*(x-{r1}{shift[2]})^-1"
            argv = ["verify", "main-theorem", f"--f={f}", f"--g={g}", f"--point={r1}", f"--base={base}",
                    f"--radius={Fraction(d) / 4}", "--steps=64", "--json"]
            algebra = AlgebraSignature(gens, len(gens) + 1)
            float_run, exact_run = (run_main([*argv, f"--algebra={sig}"]) for sig in (algebra.to_float(), algebra))
            assert (float_run[0], float_run[2]) == (exact_run[0], exact_run[2]) == (1, "")  # 64 steps fall short
            assert without_runtime(float_run[1]) == without_runtime(exact_run[1])


def test_float_weil_prints_the_exact_report():
    rng = random.Random("float weil")
    for gens in (("eps",), ("eps", "delta")):
        for odd in (False, True):
            f, g = bench_weil_texts(rng, gens, odd)
            algebra = AlgebraSignature(gens, len(gens) + 1)
            argv = ["verify", "weil", f"--f={f}", f"--g={g}", "--trunc=12", "--json"]
            float_run, exact_run = (run_main([*argv, f"--algebra={sig}"]) for sig in (algebra.to_float(), algebra))
            assert float_run[0] == exact_run[0] == 0
            report = without_runtime(float_run[1])
            assert report == without_runtime(exact_run[1]) and report["deviation"] == 0.0
