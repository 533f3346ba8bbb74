"""Tests of the benchmark itself: seeding, span arithmetic and the gate."""

import contextlib
import io
import json
import os
import random
import sys
from collections import Counter
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import gate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ccsym import cli  # noqa: E402
from ccsym.algebra import parse_signature  # noqa: E402
from ccsym.scalars import gaussian  # noqa: E402


def argvs(workload, seed):
    return [argv for check in workloads.build(workload, seed) for argv in check.argvs]


def test_same_seed_same_argvs_other_seed_other_argvs():
    for workload in workloads.WORKLOADS:
        assert argvs(workload, 7) == argvs(workload, 7)
        assert argvs(workload, 7) != argvs(workload, 8)


def test_no_command_repeats_within_a_pass():
    for workload in workloads.WORKLOADS:
        for seed in range(5):
            commands = [tuple(a) for a in argvs(workload, seed)]
            assert len(commands) == len(set(commands))


def test_self_times_on_nested_spans():
    # root [0,100] has children a [10,40] and b [50,90]; b has child c [60,70]
    durations = [100, 30, 40, 10]
    parents = [-1, 0, 0, 2]
    assert list(tracing.self_times(durations, parents)) == [30, 30, 30, 10]


def test_layer_metrics_from_synthetic_spans():
    tracer = tracing.Tracer()
    spans = [  # name, start, end, parent
        ("cli.main", 0, 1000, -1),
        ("chen.transport", 100, 900, 0),
        ("chen.form_eval.SimplePole", 200, 300, 1),
        ("chen.form_eval.DlogForm", 400, 700, 1),
        ("ratfunc.dlog_eval", 450, 650, 3),
    ]
    for name, start, end, parent in spans:
        tracer.span_name.append(tracer.name_id(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.check.append(0)
        tracer.pass_no.append(0)
    (totals,) = tracing.pass_totals(tracer, 1)
    got = tracing.layer_metrics(totals, Counter({"chen.steps": 4, "chen.words": 3, "paths.segments": 1}))
    assert got["chen.transport.self_ms"][0] == 400 / 1e6
    assert got["chen.step_us"][0] == 400 / 1e3 / 4
    assert got["chen.form_evals"][0] == 2
    assert got["chen.form_eval_us"][0] == (100 + 300) / 2 / 1e3
    assert got["ratfunc.dlog_eval.us"][0] == 200 / 1e3
    assert got["cli.self_ms"][0] == 200 / 1e6


def test_calibration_divides_by_the_surrounding_reference_times():
    nominal = run.REFERENCE_NOMINAL_S
    assert run.calibrated([1.0, 3.0], [nominal, nominal, nominal]) == [1.0, 3.0]
    # a machine twice as slow doubles both the check and the reference
    assert run.calibrated([2.0], [2 * nominal, 2 * nominal]) == [1.0]
    assert run.calibrated([1.0], [nominal, 3 * nominal]) == [0.5]


def test_oracle_reads_printed_exact_elements():
    sig = parse_signature("gens=eps,delta;degree=3;scalars=exact")
    rng = random.Random(3)
    for _ in range(50):
        coeffs = {
            m: gaussian(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-3, 3), 2))
            for m in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
            if rng.random() < 0.7
        }
        elt = sig.element(coeffs)
        parsed = oracle.parse_exact_element(str(elt), ("eps", "delta"), 3)
        assert parsed == {m: (c.re, c.im) for m, c in elt.coeffs.items()}


def no_reference():
    return 1.0


def tampering_main(victim, tamper):
    """ccsym.cli.main, except that the output of argv `victim` is rewritten."""

    def main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        text = buf.getvalue()
        print(tamper(text) if argv == victim else text, end="")
        return code

    return main


def exact_checks():
    checks = workloads.build("exact-reciprocity", 0)
    weil = next(c for c in checks if c.argvs[0][:2] == ["verify", "weil"])
    symbol = next(c for c in checks if c.kind == "symbol")
    factorize = next(c for c in checks if c.kind == "factorize")
    return [weil, symbol, factorize]


def test_gate_passes_untampered_outputs():
    result = gate.run_pass(cli.main, exact_checks(), no_reference)
    assert (result.attempted, result.failed) == (3, 0)


def test_flipped_exact_outputs_are_counted_as_failures():
    weil, symbol, factorize = exact_checks()

    def nonzero_deviation(text):
        report = json.loads(text)
        report["deviation"] = 5e-324
        return json.dumps(report)

    def flipped_sign(text):
        return f"-({text.strip()})\n"

    def flipped_factor(text):
        payload = json.loads(text)
        entry = next(iter(payload["pos_factors"].values()))
        entry["1"][0] = -entry["1"][0]
        return json.dumps(payload)

    for victim, tamper in ((weil.argvs[0], nonzero_deviation),
                           (symbol.argvs[1], flipped_sign),
                           (factorize.argvs[0], flipped_factor)):
        result = gate.run_pass(tampering_main(victim, tamper), [weil, symbol, factorize], no_reference)
        assert (result.attempted, result.failed) == (3, 1), result.failures


def test_nonzero_exit_is_a_failure():
    bad = workloads.Check("report", [["verify", "weil", "--f=(x", "--g=x", "--json"]], {"exact": True})
    result = gate.run_pass(cli.main, [bad], no_reference)
    assert (result.attempted, result.failed) == (1, 1)
    assert "exit 2" in result.failures[0][2]
