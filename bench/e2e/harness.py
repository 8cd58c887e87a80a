#!/usr/bin/env python3
"""Orchestrates the end-to-end PEMS benchmark (bench/e2e/README.md).

run.sh builds serena_e2e and execs this script. Every round of every
workload runs in a fresh `serena_e2e` process with a pinned environment.
This script runs the oracle check, aggregates the rounds into the metrics
BENCHMARK.json names, and prints one JSON object as the last line of
stdout. A human-readable report precedes it.
"""

import argparse
import datetime
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["firehose", "query_fleet", "device_fanout", "console_churn"]
# Pool workers; with the main thread that makes 4 threads.
THREADS = "3"
# Measured rounds per workload; --seconds is split evenly between them.
ROUNDS = 5
# Set-up-only rounds per workload. A set-up is short and scatters widely
# from process to process, so setup_s is the median of these and the
# measured rounds' set-ups.
SETUP_ROUNDS = 10
# Absolute allowance below which a worse value never counts as a
# regression, whatever its share: set-ups of a few milliseconds jitter by
# more than a tenth. BENCHMARK.json has no field for it.
FLOOR = {"setup_s": 0.005}
SMOKE_SCALE = 50
SMOKE_ROUND_SECONDS = 0.25


class BenchError(Exception):
    pass


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    for p in (99.9, 99.0, 90.0):
        if len(values) * (1 - p / 100.0) >= 10:
            return "p%g" % p, percentile(values, p)
    return "max", max(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

_sequence = itertools.count()


def child_env(threads=THREADS, **extra):
    """The pinned environment: every SERENA_* variable of the caller is
    dropped, so a developer's shell cannot skew a run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SERENA_")}
    env["SERENA_THREADS"] = threads
    env.update(extra)
    return env


def run_child(ctx, args, env, timeout):
    """Runs one serena_e2e process and returns its JSON."""
    tmp = os.path.join(ctx.build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    out_path = os.path.join(tmp, "child-%d-%d.json" % (os.getpid(), next(_sequence)))
    with open(out_path, "wb") as out:
        proc = subprocess.Popen([ctx.binary] + args, stdout=out, env=env)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        proc.wait()
    finally:
        timer.cancel()
    with open(out_path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    os.remove(out_path)
    if proc.returncode != 0 or not lines:
        raise BenchError("serena_e2e %s exited with %d" % (" ".join(args), proc.returncode))
    return json.loads(lines[-1])


def base_args(workload, seed, scale):
    return ["--workload=" + workload, "--seed=%d" % seed, "--scale=%d" % scale]


def verify(ctx, workload, seed, scale, perturb=False):
    """Runs the workload's verify prefix in the measured configuration and
    in the oracle configuration (scalar core, serial pool, no optimizer
    stages) and compares their per-instant digests. Returns None when they
    agree, else a reason."""
    args = base_args(workload, seed, scale) + ["--mode=verify"]
    measured = run_child(ctx, args + (["--perturb"] if perturb else []), child_env(), 120)
    oracle = run_child(ctx, args + ["--stages=none"],
                       child_env(threads="0", SERENA_VECTORIZE="off"), 120)
    for name, run in (("measured", measured), ("oracle", oracle)):
        if run["failed"]:
            return "%d operations failed in the %s run" % (run["failed"], name)
    for i, (a, b) in enumerate(zip(measured["digests"], oracle["digests"])):
        if a != b:
            return "first divergence at instant %d" % (i + 1)
    if len(measured["digests"]) != len(oracle["digests"]):
        return "instant counts differ"
    return None


def exact_problems(rounds):
    """Counts the rounds of one seed must reproduce exactly. Result rows and
    actions, the Def. 8/9 observables, must match in every round. The
    injected-fault tally must match among rounds with the same pool size
    only: under a parallel pool, duplicate requests awaiting another
    query's failing call each retry it, where the serial batch retries it
    once (ServiceRegistry::InvokeMany documents that failure-path counts
    differ between dispatch paths)."""
    problems = []
    for key in ("rows", "actions"):
        values = sorted({r["exact"][key] for r in rounds})
        if len(values) > 1:
            problems.append("warm-up %s differ across rounds: %s" % (key, values))
    for pool in sorted({r["pool_threads"] for r in rounds}):
        faults = sorted({r["exact"]["device_failures"] for r in rounds if r["pool_threads"] == pool})
        if len(faults) > 1:
            problems.append("warm-up device faults differ across rounds with %d pool threads: %s"
                            % (pool, faults))
    for r in rounds:
        if r["device_failures_injected"] != r["registry_failures"]:
            problems.append("%d injected device failures but %d failed invocations" %
                            (r["device_failures_injected"], r["registry_failures"]))
    return problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

# End-to-end metric -> its value in one measured round.
ROUND_VALUE = {
    "setup_s": lambda r: r["setup_ns"] / 1e9,
    "tick_p50_ms": lambda r: median(r["tick_ns"]) / 1e6,
    "instants_per_s": lambda r: r["instants"] / (
        (r["wall_ns"] - r["generate_ns"] - r["console_ns"]) / 1e9),
    "oneshot_p50_ms": lambda r: median(r["oneshot_visit_ns"]) / 1e6,
    "register_p50_ms": lambda r: median(r["register_ns"]) / 1e6,
    "write_p50_us": lambda r: median(r["write_visit_ns"]) / 1e3,
    "peak_rss_mb": lambda r: r["peak_rss_kb"] / 1024.0,
}

# Timing metric -> (raw samples pooled across rounds, divisor, unit) for
# the printed tail percentile.
POOLED = {
    "tick_p50_ms": ("tick_ns", 1e6, "ms"),
    "oneshot_p50_ms": ("oneshot_ns", 1e6, "ms"),
    "register_p50_ms": ("register_ns", 1e6, "ms"),
    "write_p50_us": ("write_ns", 1e3, "us"),
}


def layer_metrics(plain, traced, serial, metrics_off):
    """Per-layer metrics from the four rounds of a traced run."""
    spans = traced["trace"]["spans"]
    ticks = spans.get("stream.tick", {}).get("count", 0)

    def per_tick_ms(name, key="total_ns"):
        return ratio(spans.get(name, {}).get(key, 0), ticks) / 1e6

    def per_instant(run, count):
        return ratio(run["counts"][count], run["instants"])

    def p50(values, divisor):
        return median(values) / divisor

    tick = p50(plain["tick_ns"], 1e6)
    counts = plain["counts"]
    trace = traced["trace"]
    return {
        "stream.sources_ms": per_tick_ms("stream.sources"),
        "stream.pump_ms": per_tick_ms("stream.pump"),
        "stream.steps_ms": per_tick_ms("stream.steps"),
        "stream.merge_ms": per_tick_ms("stream.merge"),
        "stream.prune_ms": per_tick_ms("stream.prune"),
        "stream.post_ms": per_tick_ms("stream.post"),
        "stream.step_p50_us": p50(serial["step_ns"], 1e3),
        "stream.serial_tick_p50_ms": p50(serial["tick_ns"], 1e6),
        "stream.parallel_speedup": ratio(p50(serial["tick_ns"], 1e6), tick),
        "stream.events_per_instant": per_instant(plain, "events"),
        "stream.result_rows_per_instant": per_instant(plain, "result_rows"),
        "stream.pruned_per_instant": per_instant(plain, "pruned"),
        "stream.tick_p99_ms": percentile(plain["tick_ns"], 99) / 1e6,
        "obs.meta_refresh_ms": per_tick_ms("stream.sources", "self_ns"),
        "obs.metrics_off_tick_p50_ms": p50(metrics_off["tick_ns"], 1e6),
        "obs.instrumentation_share": 1.0 - ratio(p50(metrics_off["tick_ns"], 1e6), tick),
        "obs.trace_overhead": ratio(p50(traced["tick_ns"], 1e6), tick),
        "algebra.execute_p50_us": p50(trace["execute_ns"], 1e3),
        "algebra.vec_rows_per_instant": per_instant(traced, "vec_rows"),
        "algebra.vec_pipelines_per_instant": per_instant(traced, "vec_pipelines"),
        "service.device_busy_ms": per_tick_ms("service.device"),
        "service.device_concurrency": ratio(
            spans.get("service.device@stream.steps", {}).get("total_ns", 0),
            spans.get("stream.steps", {}).get("total_ns", 0)),
        "service.logical_per_instant": per_instant(plain, "logical"),
        "service.physical_per_instant": per_instant(plain, "physical"),
        "service.memo_hit_ratio": ratio(counts["memo_hits"], counts["logical"]),
        "service.failed_per_instant": per_instant(plain, "failed_invocations"),
        "service.actions_per_instant": per_instant(plain, "actions"),
        "ddl.parse_p50_us": p50(trace["parse_ns"], 1e3),
        "analysis.analyze_p50_us": p50(trace["analyze_ns"], 1e3),
        "analysis.lint_registration_p50_us": p50(trace["lint_ns"], 1e3),
        "optimizer.optimize_p50_us": p50(trace["optimize_ns"], 1e3),
        "optimizer.fragments_per_plan": ratio(trace["fragments"], trace["optimize_runs"]),
        "optimizer.changed_ratio": ratio(trace["optimize_changed"], trace["optimize_runs"]),
        "pems.unregister_p50_us": p50(plain["unregister_ns"], 1e3),
        "pems.setup_ddl_ms": plain["setup_ddl_ns"] / 1e6,
        "pems.setup_register_ms": plain["setup_register_ns"] / 1e6,
        "pems.oneshot_p99_ms": percentile(plain["oneshot_ns"], 99) / 1e6,
        "pems.register_p99_ms": percentile(plain["register_ns"], 99) / 1e6,
    }


def phase_coverage(traced):
    spans = traced["trace"]["spans"]
    phases = sum(spans.get("stream." + p, {}).get("total_ns", 0)
                 for p in ("sources", "steps", "merge", "prune", "post"))
    return ratio(phases, spans.get("stream.tick", {}).get("total_ns", 0))


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def say(text=""):
    print(text, flush=True)


def run_value(metric, values):
    """A run's value of an end-to-end metric from its per-round values:
    the median set-up, and for every other metric the best round (lowest
    time, highest rate). On a shared host, other tenants slow whole
    processes by up to half, in phases that outlast a run, and only ever
    add time; the median of a run's rounds follows those phases, its best
    round much less (README.md, "Why the best round")."""
    if metric["name"] == "setup_s":
        return median(values)
    return min(values) if metric["better"] == "lower" else max(values)


def say_verify(workload, problem):
    say("verify=%s %s%s" % ("ok" if problem is None else "FAIL", workload,
                            "" if problem is None else " (%s)" % problem))


def measure_workload(ctx, spec, workload, seed, seconds, scale=1):
    """Verify, then measured rounds and set-up-only rounds: the end-to-end
    metrics."""
    problem = verify(ctx, workload, seed, scale)
    say_verify(workload, problem)
    round_seconds = seconds / ROUNDS
    runs = [run_child(ctx, base_args(workload, seed, scale) + ["--seconds=%g" % round_seconds],
                      child_env(), round_seconds + 60)
            for _ in range(ROUNDS)]
    per_round = {name: [fn(r) for r in runs] for name, fn in ROUND_VALUE.items()}
    per_round["setup_s"] += [
        run_child(ctx, base_args(workload, seed, scale) + ["--mode=setup"], child_env(), 60)
        ["setup_ns"] / 1e9 for _ in range(SETUP_ROUNDS)]
    pooled = {name: [x / div for r in runs for x in r[key]]
              for name, (key, div, _) in POOLED.items()}
    pooled["setup_s"] = per_round["setup_s"]
    return {
        "workload": workload,
        "rounds": ROUNDS,
        "round_seconds": round_seconds,
        "verify": problem or "ok",
        "problems": exact_problems(runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "per_round": per_round,
        "pooled": pooled,
        "metrics": {m["name"]: run_value(m, per_round[m["name"]]) for m in spec["end_to_end"]},
    }


def trace_workload(ctx, workload, seed, seconds, scale=1):
    """Verify, then a plain, a traced, a serial and a metrics-off round:
    the per-layer metrics. End-to-end metrics never come from here."""
    problem = verify(ctx, workload, seed, scale)
    say_verify(workload, problem)
    args = base_args(workload, seed, scale) + ["--seconds=%g" % (seconds / 4.0)]
    timeout = seconds / 4.0 + 60
    traces = os.path.join(ctx.build, "traces")
    os.makedirs(traces, exist_ok=True)
    trace_path = os.path.join(traces, "%s-seed%d.json" % (workload, seed))
    plain = run_child(ctx, args, child_env(), timeout)
    traced = run_child(ctx, args + ["--trace-out=" + trace_path], child_env(), timeout)
    serial = run_child(ctx, args + ["--steps"], child_env(threads="0"), timeout)
    metrics_off = run_child(ctx, args, child_env(SERENA_METRICS="off"), timeout)
    runs = [plain, traced, serial, metrics_off]
    problems = exact_problems(runs)
    coverage = phase_coverage(traced)
    if coverage < 0.95:
        problems.append("tick phases cover %.1f%% of traced tick time (< 95%%)" % (100 * coverage))
    metrics = layer_metrics(plain, traced, serial, metrics_off)
    if workload == "firehose" and metrics["algebra.vec_rows_per_instant"] <= 0:
        problems.append("the traced round left the vectorized core")
    say("trace written: %s (phase coverage %.1f%%)" % (os.path.relpath(trace_path, ROOT), 100 * coverage))
    return {
        "workload": workload,
        "verify": problem or "ok",
        "problems": problems,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "coverage": coverage,
        "metrics": metrics,
    }


def report_measured(result, spec):
    w = result["workload"]
    say("== %s: %d rounds x %.2f s" % (w, result["rounds"], result["round_seconds"]))
    for m in spec["end_to_end"]:
        name, unit = m["name"], m["unit"]
        rounds = result["per_round"][name]
        lo, hi = quartiles(rounds)
        line = "%s %-16s %12.4f %-5s median=%.4f q1=%.4f q3=%.4f" % (
            w, name, result["metrics"][name], unit, median(rounds), lo, hi)
        if name in result["pooled"]:
            samples = result["pooled"][name]
            label, value = tail(samples)
            tail_unit = POOLED[name][2] if name in POOLED else unit
            line += "  %s=%.4f %s n=%d" % (label, value, tail_unit, len(samples))
        say(line)
    say("%s %-16s %12.6f share  (%d of %d operations)" % (
        w, "failed_ratio", ratio(result["failed"], result["attempted"]),
        result["failed"], result["attempted"]))


def report_traced(result, spec):
    w = result["workload"]
    for m in spec["per_layer"]:
        say("%s %-36s %14.4f %s" % (w, m["name"], result["metrics"][m["name"]], m["unit"]))


def commit():
    """HEAD of the checkout, read from .git directly (no git process, so
    nothing outside the checkout is read); "unknown" outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_record(ctx, record):
    directory = os.path.join(ctx.build, "results")
    os.makedirs(directory, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    path = os.path.join(directory, "%s-seed%d-%s.json" % (
        stamp, record["seed"], "trace" if record["trace"] else "e2e"))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    say("results written: %s" % os.path.relpath(path, ROOT))


def run_benchmark(ctx, args, spec):
    workloads = [args.workload] if args.workload else WORKLOADS
    trace = bool(args.trace)
    results = []
    for w in workloads:
        if trace:
            result = trace_workload(ctx, w, args.seed, args.seconds)
            report_traced(result, spec)
        else:
            result = measure_workload(ctx, spec, w, args.seed, args.seconds)
            report_measured(result, spec)
        for problem in result["problems"]:
            say("check=FAIL %s (%s)" % (w, problem))
        results.append(result)

    correct = all(r["verify"] == "ok" and not r["problems"] for r in results)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "."
        for name in names:
            metrics[prefix + name] = {"value": r["metrics"][name], "unit": units[name]}
    write_record(ctx, {
        "commit": commit(),
        "build_type": ctx.build_type,
        "nproc": os.cpu_count(),
        "threads": int(THREADS) + 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "workloads": {r["workload"]: r for r in results},
    })
    say(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_verify_only(ctx, args):
    ok = True
    for w in [args.workload] if args.workload else WORKLOADS:
        problem = verify(ctx, w, args.seed, 1, perturb=args.perturb)
        say_verify(w, problem)
        ok = ok and problem is None
    return 0 if ok else 1


def run_smoke(ctx, args, spec):
    """Every workload at 1/50 scale: verify, the perturbed negative
    control (verify must fail), and one short round."""
    ok = True
    for w in [args.workload] if args.workload else WORKLOADS:
        problem = verify(ctx, w, args.seed, SMOKE_SCALE)
        perturbed = verify(ctx, w, args.seed, SMOKE_SCALE, perturb=True)
        run = run_child(ctx, base_args(w, args.seed, SMOKE_SCALE) +
                        ["--seconds=%g" % SMOKE_ROUND_SECONDS], child_env(), 60)
        problems = exact_problems([run])
        if run["failed"]:
            problems.append("%d operations failed" % run["failed"])
        say_verify(w, problem)
        say("perturb=%s %s (%s)" % ("ok" if perturbed else "FAIL", w,
                                    perturbed or "verify missed the perturbed input"))
        for m in spec["end_to_end"]:
            say("%s %-16s %12.4f %s" % (w, m["name"], ROUND_VALUE[m["name"]](run), m["unit"]))
        for problem_text in problems:
            say("check=FAIL %s (%s)" % (w, problem_text))
        ok = ok and problem is None and perturbed is not None and not problems
    say("smoke=%s" % ("ok" if ok else "FAIL"))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------


def compare(paths, spec):
    """For each workload and end-to-end metric of two result records: both
    sides' reported value, their median and quartiles across rounds, the
    ratio B/A and a verdict. The allowance is the metric's bound times A's
    value, or its floor when that is larger. B regressed when its value is
    worse than A's by more than the allowance; the pair is unresolved when
    either side's quartile spread across rounds exceeds the allowance."""
    records = []
    for path in paths:
        with open(path) as f:
            records.append(json.load(f))
        say("%s: %s (commit %s, seed %s)" % ("AB"[len(records) - 1], path,
                                            records[-1].get("commit"), records[-1].get("seed")))
    a, b = records
    say("%-14s %-16s %36s %36s %7s  %s" % (
        "workload", "metric", "A value [median q1..q3]", "B value [median q1..q3]", "B/A",
        "verdict"))
    regressed = False
    common = [w for w in WORKLOADS
              if "per_round" in a["workloads"].get(w, {}) and "per_round" in b["workloads"].get(w, {})]
    if not common:
        raise BenchError("the records share no measured workload")
    for w in common:
        ra, rb = a["workloads"][w], b["workloads"][w]
        for m in spec["end_to_end"]:
            name = m["name"]
            cells, values, spread = [], [], 0.0
            for rounds in (ra["per_round"][name], rb["per_round"][name]):
                value, (lo, hi) = run_value(m, rounds), quartiles(rounds)
                cells.append("%.4f [%.4f %.4f..%.4f]" % (value, median(rounds), lo, hi))
                values.append(value)
                spread = max(spread, hi - lo)
            base = values[0]
            allowed = max(m["bound"] * base, FLOOR.get(name, 0.0))
            worse = values[1] - base if m["better"] == "lower" else base - values[1]
            if spread > allowed:
                verdict = "unresolved (quartile spread %.1f%% > allowance %.1f%%)" % (
                    100 * ratio(spread, base), 100 * ratio(allowed, base))
            elif worse > allowed:
                verdict = "regressed (%.1f%% worse, allowance %.1f%%)" % (
                    100 * ratio(worse, base), 100 * ratio(allowed, base))
                regressed = True
            else:
                verdict = "within bound"
            say("%-14s %-16s %36s %36s %7.3f  %s" % (
                w, name, cells[0], cells[1], ratio(values[1], base), verdict))
    return 1 if regressed else 0


# ---------------------------------------------------------------------------


class Context:
    def __init__(self, build):
        self.build = build
        self.binary = os.path.join(build, "serena_e2e")
        out = subprocess.run([self.binary, "--build-type"], capture_output=True, text=True)
        self.build_type = out.stdout.strip()


def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description="End-to-end PEMS benchmark (see README.md).")
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured seconds per workload, split into rounds")
    # `--trace` alone means `--trace 1`.
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: per-layer metrics from traced and diagnostic rounds")
    parser.add_argument("--verify", action="store_true", help="run only the oracle check")
    parser.add_argument("--perturb", action="store_true",
                        help="with --verify: alter one generated value in the measured run")
    parser.add_argument("--smoke", action="store_true", help="1/50 scale, under 10 s")
    parser.add_argument("--compare", help="A.json,B.json: compare two result records")
    return parser.parse_args(argv)


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    args = parse_args(argv, spec)
    if args.compare:
        paths = args.compare.split(",")
        if len(paths) != 2:
            raise BenchError("--compare takes A.json,B.json")
        return compare(paths, spec)
    ctx = Context(os.path.join(ROOT, "build-e2e"))
    if ctx.build_type != "Release":
        raise BenchError("refusing to time a %r build; configure build-e2e with "
                         "-DCMAKE_BUILD_TYPE=Release" % ctx.build_type)
    if args.smoke:
        return run_smoke(ctx, args, spec)
    if args.verify:
        return run_verify_only(ctx, args)
    return run_benchmark(ctx, args, spec)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as error:
        print("error: %s" % error, file=sys.stderr)
        sys.exit(2)
