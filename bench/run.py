"""ccsym benchmark: one workload, seeded inputs, gated outputs.

    python3 bench/run.py --workload chen-scalar --seed 1 --seconds 30 --trace 0

Runs from the repository root and imports ccsym from `src/`.  A pass
runs each of the workload's checks once through `ccsym.cli.main` in
this process, in a closed loop with no extra threads; passes repeat
until `--seconds` have elapsed (at least two).  Before each pass every
ccsym module is dropped and imported anew, so no module-level state (a
cache, say) carries over from one pass to the next.  Every output is
gated (see gate.py) and every pass must produce the same output digest.

Times are calibrated: each check's (and each set-up's) wall time is
divided by the time of a fixed reference computation measured right
before and after it, and multiplied by REFERENCE_NOMINAL_S.  They read
as seconds at the reference speed, so the minute-scale speed swings of
a shared machine cancel; the raw seconds are printed alongside.

With `--trace 0` the last stdout line carries the end-to-end metrics;
with `--trace 1` the run first makes untraced passes for half the time,
then traced passes (tracing.py) that alternate between span wrappers and
call counters, and the last line carries the per-layer metrics.  Spans are written to
`.bench_out/` under the repository root.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 25
MIN_PASSES = 2
REFERENCE_ITERATIONS = 4000
REFERENCE_SAMPLES = 5
# Python salts str hashes per process unless PYTHONHASHSEED is set; the
# salt changes the layout of every str-keyed dict, and with it the times,
# from one process to the next.  The run re-executes itself with this
# fixed seed, so that two runs differ only in their inputs.
HASH_SEED = "0"
# The reference work's time on a quiet shared 2-vCPU Intel Xeon virtual
# machine under CPython 3.11; calibrated times read as seconds at that speed.
REFERENCE_NOMINAL_S = 0.004

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def reference_work():
    """Fixed pure-Python work of the kind ccsym's inner loops do: complex
    products, dict updates and small Fraction arithmetic."""
    acc = {}
    z = 0.3 + 0.1j
    q = Fraction(0)
    for k in range(REFERENCE_ITERATIONS):
        z = z * z * 0.5 + 0.1j
        acc[k & 31] = acc.get(k & 31, 0j) + z
        if not k & 7:
            q += Fraction(k & 15, 3) * Fraction(3, 4)
    return acc, q


def reference_s() -> float:
    """Median time of the reference work, with the collector paused."""
    paused = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REFERENCE_SAMPLES):
            started = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - started)
    finally:
        if paused:
            gc.enable()
    return statistics.median(times)


def calibrated(times, refs) -> list:
    """Each time divided by the mean of the reference times measured just
    before and just after it (`refs` is one longer than `times`), in
    seconds at the nominal reference speed.  This cancels the speed drift
    of a shared machine, which moves both alike."""
    return [t * REFERENCE_NOMINAL_S * 2 / (refs[i] + refs[i + 1]) for i, t in enumerate(times)]


def fresh_cli():
    """ccsym.cli with every ccsym module dropped and executed anew."""
    for name in [n for n in sys.modules if n == "ccsym" or n.startswith("ccsym.")]:
        del sys.modules[name]
    return importlib.import_module("ccsym.cli")


def setup(workload: str, seed: int):
    """Median calibrated time of SETUP_REPEATS fresh imports of ccsym.cli
    plus builds of the pass; (raw s, calibrated s, checks).  The modules
    dropped by the last import form reference cycles; they are collected
    before the clock starts, not inside the next import."""
    times, refs = [], [reference_s()]
    for _ in range(SETUP_REPEATS):
        gc.collect()
        started = time.perf_counter()
        fresh_cli()
        checks = workloads.build(workload, seed)
        times.append(time.perf_counter() - started)
        refs.append(reference_s())
    return statistics.median(times), statistics.median(calibrated(times, refs)), checks


def run_passes(checks, seconds: float, fresh_main, before_check=None) -> list:
    """Passes until `seconds` have elapsed, at least MIN_PASSES.  Pass k
    calls the CLI entry point that `fresh_main(k)` returns; the import
    and the collection of the last pass's garbage are not timed."""
    results = []
    started = time.perf_counter()
    while len(results) < MIN_PASSES or time.perf_counter() - started < seconds:
        main = fresh_main(len(results))
        gc.collect()
        results.append(gate.run_pass(main, checks, reference_s, before_check))
    return results


def pass_times(results):
    """(raw s, calibrated s) of one pass: each check's time is the median
    over the passes, and the pass is the sum over its checks."""
    raw = sum(statistics.median(t) for t in zip(*(r.check_s for r in results)))
    cal = [calibrated(r.check_s, r.ref_s) for r in results]
    return raw, sum(statistics.median(t) for t in zip(*cal))


def summarize(results):
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    return attempted, failed, max(r.dev_ratio_max for r in results)


def report_failures(results):
    for k, r in enumerate(results):
        for check, command, reason in r.failures:
            print(f"FAILED pass {k} check {check} ({command}): {reason}", file=sys.stderr)


def emit(lines, correct, attempted, failed, metrics):
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ccsym", "cli.py")):
        print(f"error: no ccsym sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    raw_setup_s, setup_s, checks = setup(args.workload, args.seed)
    import ccsym

    if not os.path.abspath(ccsym.__file__).startswith(SRC + os.sep):
        print(f"error: ccsym imported from {ccsym.__file__}, not {SRC}", file=sys.stderr)
        return 2

    head = (
        f"workload {args.workload} seed {args.seed}: {len(checks)} checks per pass, "
        f"python {platform.python_version()}, nproc {os.cpu_count()}"
    )
    budget = args.seconds / 2 if args.trace else args.seconds
    plain = run_passes(checks, budget, lambda k: fresh_cli().main)
    report_failures(plain)
    digests = {r.digest for r in plain}
    raw_wall_s, wall_s = pass_times(plain)
    attempted, failed, ratio = summarize(plain)

    if not args.trace:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        refs = [x for r in plain for x in r.ref_s]
        lines = [
            head,
            f"  wall_s        {wall_s:.4f} s  (calibrated; raw {raw_wall_s:.4f} s; "
            f"per-check medians over {len(plain)} passes)",
            f"  setup_s       {setup_s:.4f} s  (calibrated; raw {raw_setup_s:.4f} s; "
            f"median of {SETUP_REPEATS} imports + input builds)",
            f"  reference     {statistics.median(refs) * 1e3:.3f} ms  (median; "
            f"{min(refs) * 1e3:.3f} to {max(refs) * 1e3:.3f}; nominal {REFERENCE_NOMINAL_S * 1e3:g})",
            f"  peak_rss_mb   {rss_mb:.1f} MB",
            f"  fail_share    {failed / attempted:g}  ({failed}/{attempted} checks failed)",
            f"  dev_ratio_max {ratio:.4g}  (largest deviation/tolerance)",
            f"  digest        {sorted(digests)[0][:16]}  "
            f"({'identical across' if len(digests) == 1 else 'DIFFERS between'} passes)",
        ]
        emit(lines, failed == 0 and len(digests) == 1, attempted, failed, {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        })
        return 0

    micro = tracing.algebra_micro(workloads.SIGNATURES[args.workload], args.seed)
    tracer = tracing.Tracer()
    snapshots = []

    def traced_main(k):
        """Even passes record spans, odd passes count calls."""
        tracer.pass_id = k
        snapshots.append(tracer.counts.copy())
        cli = fresh_cli()
        tracing.install(tracer, spans=k % 2 == 0)
        return cli.main

    def before_check(i):
        tracer.check_id = i

    traced = run_passes(checks, args.seconds - budget, traced_main, before_check)
    snapshots.append(tracer.counts.copy())
    report_failures(traced)
    per_pass = [
        tracing.layer_metrics(totals, snapshots[k + 1] - snapshots[k])
        for k, totals in enumerate(tracing.pass_totals(tracer, len(traced)))
    ]
    span_passes, counter_passes = per_pass[0::2], per_pass[1::2]
    metrics = {
        name: (statistics.median(
            p[name][0] for p in (counter_passes if name in tracing.COUNTER_METRICS else span_passes)), unit)
        for name, (_, unit) in per_pass[0].items()
    }
    metrics.update(micro)
    _, traced_s = pass_times(traced[0::2])
    _, counted_s = pass_times(traced[1::2])
    t_attempted, t_failed, _ = summarize(traced)
    metrics["trace.overhead_s"] = (traced_s - wall_s, "s")
    metrics["fail_share"] = ((failed + t_failed) / (attempted + t_attempted), "ratio")
    metrics["dev_ratio_max"] = (ratio, "ratio")
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json.gz")
    tracer.write(span_file)

    same = {r.digest for r in traced} == digests and len(digests) == 1
    lines = [head, f"  calibrated wall_s {wall_s:.4f} s untraced over {len(plain)} passes (raw "
             f"{raw_wall_s:.4f} s), {traced_s:.4f} s with spans over {len(traced[0::2])} passes, "
             f"{counted_s:.4f} s with counters over {len(traced[1::2])} passes; digests "
             f"{'equal' if same else 'DIFFER'}; {len(tracer.start)} spans in {span_file}"]
    lines += [f"  {name:28s} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    emit(lines, failed + t_failed == 0 and same, attempted + t_attempted, failed + t_failed, metrics)
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]])
    sys.exit(main())
