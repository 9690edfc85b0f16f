"""aptkit benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload toric-atlas --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload persistence --steadiness 10 --seed 100

A run generates the workload's fixed operation list from the seed and runs
it in full, in fresh worker processes one after another (``worker.py``),
checking every result.  ``--seconds`` sets the number of passes, never a
time limit (see ``passes_for``), so a run always completes whole passes.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run makes one untraced and one
traced pass and reports the per-layer metrics.  Set-up is timed in every
pass and in extra set-up-only workers, ``SETUPS`` times a run.  Operation
and set-up times are scaled to the reference machine's speed by a fixed
reference computation timed next to each of them (``scaled_latencies``).
``--steadiness N`` runs the workload N times with seeds seed..seed+N-1 and
prints, per metric, the median, quartiles, spread and largest deviation.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
RUN_BUDGET_S = 170

# Passes per run at --seconds 20, 20 to 30 s of running on the reference
# machine (see README); other values of --seconds scale the count.
PASSES_AT_20S = {"toric-atlas": 3, "polyhedra-cutoff": 8, "persistence": 4, "cli": 2}
SETUPS = 8
# The fastest time of worker.reference() on the reference machine (see
# README), and the half-width, in operations, of the window of reference
# timings whose median gives the machine's speed at an operation.
REFERENCE_S = 0.0012
REFERENCE_WINDOW = 5


def passes_for(workload, seconds):
    return max(2, round(PASSES_AT_20S[workload] * seconds / 20))


def estimate(workload, samples):
    """One value per operation from its scaled samples over the passes: the
    median, but for cli the minimum, since with two passes the median is
    the mean and takes in a slow process start wholesale (see README)."""
    return min(samples) if workload == "cli" else statistics.median(samples)


def run_worker(job, traced, deadline):
    env = dict(os.environ, PYTHONHASHSEED="0")
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    payload = json.dumps(dict(job, trace=traced))
    env["PERFBENCH_SPAWN"] = repr(time.monotonic())
    # Its own session, so that an overrun kills the worker with any CLI child.
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(payload, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {stderr.strip()[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def nearest_rank(sorted_values, q):
    rank = math.ceil(q * len(sorted_values))
    return sorted_values[rank - 1], len(sorted_values) - rank


def scaled_latencies(p):
    """A pass's operation times at the reference machine's speed: each is
    scaled by REFERENCE_S over the median of the reference timings of the
    operations around it."""
    refs, w = p["reference_s"], REFERENCE_WINDOW
    return [t * REFERENCE_S / statistics.median(refs[max(0, i - w): i + w + 1])
            for i, t in enumerate(p["latency_s"])]


def scaled_setup(p):
    return p["setup_s"] * REFERENCE_S / statistics.median(p["setup_reference_s"])


def end_to_end(workload, passes, setups, n_ops):
    scaled = [scaled_latencies(p) for p in passes]
    per_op = [estimate(workload, [lat[i] for lat in scaled]) for i in range(n_ops)]
    ordered = sorted(per_op)
    p90, beyond = nearest_rank(ordered, 0.9)
    metrics = {
        "ops_per_s": (n_ops / sum(per_op), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(ordered), "ms"),
        "latency_p90_ms": (1000 * p90, "ms"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, beyond


def per_layer(untraced, traced):
    import tracer

    raw = tracer.merge(traced["layers"])
    metrics = tracer.metrics(raw)
    cli = traced["cli"]  # empty, so 0, on every workload but cli
    for key in ("interpreter_ms", "import_ms", "main_ms"):
        metrics[f"cli.{key}"] = (statistics.median(c[key] for c in cli) if cli else 0.0, "ms")
    metrics["trace.overhead_ratio"] = (sum(traced["latency_s"]) / sum(untraced["latency_s"]), "ratio")
    return metrics, raw


def run_once(workload, seed, seconds, trace, log=print):
    deadline = time.monotonic() + RUN_BUDGET_S
    job = gen.generate(workload, seed)
    ops = job["ops"]
    if trace:
        passes = [run_worker(job, False, deadline), run_worker(job, True, deadline)]
        metrics, raw = per_layer(*passes)
        log(f"traced pass: {raw['spans']} spans in {passes[1]['spans_file']}")
    else:
        passes = [run_worker(job, False, deadline) for _ in range(passes_for(workload, seconds))]
        setups = [scaled_setup(p) for p in passes]
        setups += [scaled_setup(run_worker(dict(job, setup_only=True), False, deadline))
                   for _ in range(SETUPS - len(setups))]
        metrics, beyond = end_to_end(workload, passes, setups, len(ops))
        log(f"{workload} seed {seed}: {len(passes)} passes of {len(ops)} operations, {len(setups)} set-ups; "
            f"times scaled to the reference speed; per-operation value = "
            f"{'minimum' if workload == 'cli' else 'median'}, set-up = median; "
            f"{beyond} operations lie beyond the p90")
    failures = [(op, p["failed"].get(str(op["index"]))) for p in passes for op in ops
                if str(op["index"]) in p["failed"]]
    for op, why in failures:
        log(f"failed: op {op['index']} {op['kind']}{' (known fault)' if op.get('known_fault') else ''}: {why}")
    return {
        "correct": all(op.get("known_fault") for op, _ in failures),
        "attempted": len(ops) * len(passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def steadiness(workload, seed, runs, seconds, trace):
    """Run a workload ``runs`` times on successive seeds; report per metric
    the median, quartiles, spread (IQR / median) and largest deviation."""
    values = {}
    for i in range(runs):
        started = time.monotonic()
        result = run_once(workload, seed + i, seconds, trace, log=lambda *_: None)
        print(f"seed {seed + i}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
              + f"; failed {result['failed']}/{result['attempted']}, correct {result['correct']}"
              + f"; {time.monotonic() - started:.1f} s", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    report = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        report[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
                        "max_dev": max(abs(v - med) for v in vals) / med if med else 0.0}
        r = report[name]
        print(f"{name:24s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  spread {r['spread']:7.2%}"
              f"  max dev {r['max_dev']:7.2%}")
    print(json.dumps({"workload": workload, "runs": runs, "seeds": [seed, seed + runs - 1], "metrics": report}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "aptkit", "__init__.py")):
        print("run from the root of an aptkit checkout: src/aptkit is missing", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    compileall.compile_dir(os.path.join("src", "aptkit"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    if args.steadiness:
        steadiness(args.workload, args.seed, args.steadiness, args.seconds, bool(args.trace))
        return 0
    try:
        result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
