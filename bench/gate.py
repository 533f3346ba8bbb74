"""Correctness gate: run a pass of checks through `ccsym.cli.main` and
judge every output.

A check fails when a command exits non-zero or raises, when a report
does not carry `"pass": true`, when an exact report has a nonzero
deviation, or when the output breaks an identity recomputed here with
`oracle.py`.  Failures are counted, never dropped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field

import oracle


@dataclass
class PassResult:
    check_s: list  # wall time of each check's CLI calls
    ref_s: list  # reference time before the first check and after each check
    attempted: int
    failed: int
    dev_ratio_max: float
    digest: str
    failures: list = field(default_factory=list)


def call_cli(main, argv):
    """(exit code, stdout) of one in-process CLI call; a raised exception
    or an argparse exit becomes a nonzero code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed check, not a crashed benchmark
            code = f"raised {type(exc).__name__}: {exc}"
    if code != 0 and err.getvalue():
        code = f"{code}: {err.getvalue().strip().splitlines()[-1]}"
    return code, out.getvalue()


def normalized(stdout: str) -> str:
    """The output with wall-clock fields dropped, for the digest."""
    try:
        data = json.loads(stdout)
    except ValueError:
        return stdout

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k != "runtime_ms"}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return json.dumps(strip(data), sort_keys=True)


def judge(check, outputs):
    """(failure reason or None, dev_ratio or None) for one check's outputs."""
    kind, expect = check.kind, check.expect
    if kind == "report":
        data = json.loads(outputs[0])
        ratio = None
        for rep in data if isinstance(data, list) else [data]:
            if rep["pass"] is not True:
                return f"{rep['check_id']} reported pass={rep['pass']}", None
            if expect.get("exact"):
                if rep["deviation"] != 0:
                    return f"{rep['check_id']} exact deviation {rep['deviation']!r}", None
            else:
                r = rep["deviation"] / rep["tolerance"]
                ratio = r if ratio is None else max(ratio, r)
        return None, ratio
    if kind == "integrate":
        got = json.loads(outputs[0]).get("1", [float("nan")] * 2)
        dev = abs(complex(*got) - expect["value"])
        if not dev <= expect["tol"]:
            return f"iterated integral off the closed form by {dev:.3e}", None
        return None, dev / expect["tol"]
    if kind == "symbol":
        gens, degree = expect["gens"], expect["degree"]
        fg, gf = (oracle.parse_exact_element(o.strip(), gens, degree) for o in outputs)
        if oracle.dense_mul(fg, gf, degree) != oracle.exact_one(len(gens)):
            return "symbol antisymmetry {f,g}*{g,f} != 1", None
        return None, None
    if kind == "factorize":
        gens, degree = expect["gens"], expect["degree"]
        payload = json.loads(outputs[0])
        top = payload["trunc_order"]
        rebuilt = oracle.reconstruct_factorization(payload, gens, degree)
        series = expect["series"]
        scale = max(abs(c) for el in series.values() for c in el.values())
        for e in set(rebuilt) | set(series):
            if top != "inf" and e >= top:
                continue
            a, b = rebuilt.get(e, {}), series.get(e, {})
            for m in set(a) | set(b):
                if abs(a.get(m, 0j) - b.get(m, 0j)) > 1e-9 * (1 + scale):
                    return f"factorization does not rebuild the series at x^{e}", None
        return None, None
    raise ValueError(f"unknown check kind {kind!r}")


def run_pass(main, checks, reference, before_check=None) -> PassResult:
    """Run every check once, in order, and gate it.  The wall time counts
    the CLI calls only, not the gate.  `reference()` is timed before the
    first check and after each check.  `before_check(i)` is called with
    the check index before each check (the tracer uses it)."""
    digest = hashlib.sha256()
    failures = []
    ratio_max = 0.0
    check_s, ref_s = [], [reference()]
    for i, check in enumerate(checks):
        if before_check is not None:
            before_check(i)
        outputs, reason, wall = [], None, 0.0
        for argv in check.argvs:
            started = time.perf_counter()
            code, stdout = call_cli(main, argv)
            wall += time.perf_counter() - started
            outputs.append(stdout)
            digest.update(normalized(stdout).encode())
            digest.update(b"\0")
            if code != 0 and reason is None:
                reason = f"exit {code}"
        check_s.append(wall)
        ref_s.append(reference())
        if reason is None:
            try:
                reason, ratio = judge(check, outputs)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason, ratio = f"unreadable output: {type(exc).__name__}: {exc}", None
            if ratio is not None:
                ratio_max = max(ratio_max, ratio)
        if reason is not None:
            failures.append((i, " ".join(check.argvs[0][:2]), reason))
    return PassResult(check_s, ref_s, len(checks), len(failures), ratio_max, digest.hexdigest(), failures)
