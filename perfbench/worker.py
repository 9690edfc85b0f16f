"""One pass over a job, in a fresh process.

Reads the job (see ``gen.generate``) as JSON on stdin, imports aptkit,
builds the fixtures and freezes them out of the collector's scans
(``gc.freeze``), runs every operation once in the job's order with
``gc.collect()`` before each one, checks each result, and prints one JSON
object: per-operation latencies, failures, set-up time and peak RSS, and,
when traced, the layer counts.  Set-up runs from the spawn time that the
parent passes in ``PERFBENCH_SPAWN`` (a ``time.monotonic()`` reading) to
the end of set-up, just before the first operation; a job with
``setup_only`` stops there.  A fixed piece of pure-Python work,
``reference()``, is timed at the start and the end of set-up (outside the
set-up time) and before every operation, so that the parent can scale the
times to the machine's speed at that moment.  Peak RSS is the worker's
own, or for the ``cli`` workload that of the largest CLI process.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
from fractions import Fraction

import checks

REFERENCE_SETUP_SAMPLES = 5


def reference():
    """Fixed pure-Python work of the kind aptkit does: Fraction arithmetic,
    dict updates and a sort; 1.2 ms at its fastest on the reference machine."""
    acc, counts = Fraction(0), {}
    for i in range(1, 600):
        acc += Fraction(i % 17 + 1, i % 13 + 1)
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc, sorted(counts.items())


def time_reference():
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def main():
    spawn = float(os.environ["PERFBENCH_SPAWN"])
    t0 = time.monotonic()
    setup_reference = [time_reference() for _ in range(REFERENCE_SETUP_SAMPLES)]
    spawn += time.monotonic() - t0  # the reference timings are not set-up
    job = json.load(sys.stdin)
    traced = job["trace"]

    import ops

    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer().install()

    ctx = {}
    for fx in job["fixtures"]:
        ops.build_fixture(ctx, fx)
    cli_env = dict(os.environ, PYTHONHASHSEED="0")
    cli_env.pop("PERFBENCH_SPAWN", None)
    cli_times, cli_raws = [], []
    if job["workload"] == "cli":
        # Warm the interpreter's and aptkit's files in the page cache, as any
        # earlier command would have; part of set-up.
        ops.run_cli([sys.executable, "-m", "aptkit.cli", "--help"], cli_env)

    # Freeze what set-up built, so that the collection before each operation
    # scans only what the operations made since.
    gc.collect()
    gc.freeze()
    setup = time.monotonic() - spawn
    setup_reference += [time_reference() for _ in range(REFERENCE_SETUP_SAMPLES)]
    latency, reference_s, failed = [], [], {}
    perf = time.perf_counter
    for op in [] if job.get("setup_only") else job["ops"]:
        if tracer is not None:
            tracer.pause()  # count only the timed calls, not inputs and checks
        try:
            call, check = prepare(ops, ctx, op, traced, cli_env, cli_times, cli_raws)
        except Exception as exc:  # an earlier failure left no input for this one
            call, check = None, None
            failed[op["index"]] = f"prepare: {exc!r}"
        reference_s.append(time_reference())
        gc.collect()
        if tracer is not None:
            tracer.begin_op(op["index"])
            tracer.resume()
        t0 = perf()
        try:
            result = call() if call is not None else None
            error = None
        except Exception as exc:
            error = exc
        t1 = perf()
        if tracer is not None:
            tracer.pause()
        latency.append(t1 - t0)
        if call is None:
            continue
        if error is not None:
            failed[op["index"]] = f"{type(error).__name__}: {error}"
            continue
        try:
            check(result)
        except checks.CheckFailed as exc:
            failed[op["index"]] = f"check: {exc}"
    out = {
        "latency_s": latency,
        "reference_s": reference_s,
        "failed": failed,
        "setup_s": setup,
        "setup_reference_s": setup_reference,
        "rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN if job["workload"] == "cli"
                                     else resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        path = os.path.join(ops.OUT, f"trace-{job['workload']}-{job['seed']}.jsonl.gz")
        tracer.write_spans(path)
        out["layers"] = [tracer.raw()] + cli_raws
        out["cli"] = cli_times
        out["spans_file"] = os.path.relpath(path)
    print(json.dumps(out))


def prepare(ops, ctx, op, traced, cli_env, cli_times, cli_raws):
    if op["kind"] != "cli":
        return ops.prepare(ctx, op)
    if traced:
        return (lambda: run_traced_cli(ops, op, cli_env, cli_times, cli_raws),
                lambda proc: ops.check_cli(op, proc))
    argv = ops.cli_argv(op, traced=False)
    return lambda: ops.run_cli(argv, cli_env), lambda proc: ops.check_cli(op, proc)


def run_traced_cli(ops, op, cli_env, cli_times, cli_raws):
    """Run one command under clitrace.py and collect its layer counts and its
    interpreter, import and main times."""
    report = os.path.join(ops.OUT, "cli-trace.json")
    if os.path.exists(report):
        os.remove(report)
    env = dict(cli_env, PERFBENCH_TRACE_OUT=report, PERFBENCH_SPAWN=repr(time.monotonic()))
    proc = ops.run_cli(ops.cli_argv(op, traced=True), env)
    with open(report, encoding="utf-8") as fh:
        data = json.load(fh)
    cli_raws.append(data.pop("layers"))
    cli_times.append(data)
    return proc


if __name__ == "__main__":
    main()
