#!/usr/bin/env python3
"""End-to-end benchmark of the intra-window join engine.

Run from the repository root:

  python3 perfbench/run.py --workload hash-uniform --seed 1 --seconds 30 \\
      --trace 0 [--save results.jsonl]
  python3 perfbench/run.py --compare parent.jsonl change.jsonl
  python3 perfbench/run.py --selftest

A run builds the package in this directory (engine library, iawj_serve,
kernels_microbench and perfbench_bin) under $CARGO_TARGET_DIR or
.bench_build, runs the workload for --seconds, checks every answer, prints a
report and, as its last stdout line, one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics;
--trace 1 the per-layer ones, from traced repetitions that
record spans in memory and write them to <build>/spans/ when the run ends.
Metric names, units, directions and bounds come from BENCHMARK.json at the
repository root; workload parameters and metric definitions from
workloads.json here.
Exit status: 0 ok, 1 wrong answer, 2 usage or build failure, 3 timeout.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

RUN_DEADLINE_S = 140    # a run must finish within 180 s ...
KERNELS_DEADLINE_S = 30  # ... including the traced run's microbenchmark
BUILD_DEADLINE_S = 850   # the first run in a checkout builds; 900 s allowed


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    """workloads.json, with BENCHMARK.json's metric tables and each
    workload's why merged in."""
    with open(os.path.join(HERE, "workloads.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        spec["workloads"][w["name"]]["why"] = w["why"]
    spec["end_to_end"] = bench["end_to_end"]
    spec["per_layer"] = bench["per_layer"]
    return spec


def clean_env():
    """The engine reads IAWJ_* knobs from the environment; a run must see
    only the workload's own settings."""
    return {k: v for k, v in os.environ.items() if not k.startswith("IAWJ_")}


def build(bdir):
    """Configures (once) and builds the package; False on failure."""
    try:
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", bdir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True, timeout=BUILD_DEADLINE_S)
        subprocess.run(
            ["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)],
            stdout=sys.stderr, check=True, timeout=BUILD_DEADLINE_S)
        return True
    except (subprocess.SubprocessError, OSError) as e:
        log("perfbench: build failed: %s" % e)
        return False


def run_group(argv, timeout):
    """Runs argv in its own process group (the benchmark program and the
    daemon it launches); kills the whole group on timeout. Returns stdout or
    None."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=clean_env(),
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None
    if proc.returncode != 0:
        log("perfbench: %s exited %d" % (os.path.basename(argv[0]),
                                          proc.returncode))
        return None
    return out.decode()


# --- Metrics from the raw record of perfbench_bin --------------------------

PHASES = ["wait", "partition", "build", "sort", "merge", "probe"]


def runner_layers(algos):
    """runner.* metrics from per-algorithm totals ({name: totals}): one row
    set per algorithm (runner.<algo>.*) plus the aggregate (runner.*)."""
    out = {}

    def derive(prefix, t):
        inputs = max(t["inputs"], 1)
        work_ns = t["runner_ms"] * 1e6 * t["threads"]
        phase = {p: t["phase_ns"][p] for p in PHASES}
        claimed = sum(phase.values()) + t["phase_ns"]["others"]
        phase["other"] = t["phase_ns"]["others"] + max(0.0, work_ns - claimed)
        for p, ns in phase.items():
            out[prefix + p + "_ns_per_in"] = ns / inputs
        out[prefix + "wall_ms"] = t["runner_ms"]
        out[prefix + "matches_per_in"] = t["matches"] / inputs
        out[prefix + "ns_per_match"] = work_ns / max(t["matches"], 1)
        out[prefix + "cpu_util"] = (
            t["cpu_ms"] / (t["runner_ms"] * t["threads"])
            if t["runner_ms"] > 0 else 0.0)
        out[prefix + "peak_tracked_mb"] = t["peak_tracked_bytes"] / 2**20

    total = {"inputs": 0, "matches": 0, "runner_ms": 0.0, "cpu_ms": 0.0,
             "peak_tracked_bytes": 0,
             "phase_ns": {p: 0 for p in PHASES + ["others"]}}
    work_ns = 0.0
    for name, t in algos.items():
        derive("runner.%s." % name.lower(), t)
        for k in ("inputs", "matches", "runner_ms", "cpu_ms"):
            total[k] += t[k]
        total["peak_tracked_bytes"] = max(total["peak_tracked_bytes"],
                                          t["peak_tracked_bytes"])
        for p in total["phase_ns"]:
            total["phase_ns"][p] += t["phase_ns"][p]
        work_ns += t["runner_ms"] * 1e6 * t["threads"]
    # The aggregate weights each algorithm by its own thread count.
    total["threads"] = work_ns / 1e6 / total["runner_ms"] \
        if total["runner_ms"] > 0 else 1
    derive("runner.", total)
    out["window_pipeline.overhead_ms"] = sum(
        t["pipeline_ms"] - t["runner_ms"] for t in algos.values())
    return out


def scaling_layers(scaling):
    out = {}
    one = many = 0.0
    for name, s in scaling.items():
        out["runner.%s.scaling" % name.lower()] = \
            s["one_thread_ms"] / s["n_thread_ms"]
        one += s["one_thread_ms"]
        many += s["n_thread_ms"]
    out["runner.scaling"] = one / many
    return out


def latencies(rep, kind):
    """(p50, p99, samples) of one repetition, enforcing the tail rule."""
    if kind == "serve":
        acks = rep["acks_ms"]
        p99, n = stats.tail_percentile(acks, 0.99)
        return stats.percentile(acks, 0.50), p99, n
    n = rep["lat_samples"]
    if stats.samples_beyond(n, 0.99) < stats.MIN_BEYOND:
        raise ValueError("p99 over %d matches has fewer than %d beyond it"
                         % (n, stats.MIN_BEYOND))
    return rep["lat_p50_ms"], rep["lat_p99_ms"], n


def end_to_end(raw, kind):
    reps = [r for r in raw["reps"] if not r["traced"]]
    lat = [latencies(r, kind) for r in reps]
    return {
        "setup_s": statistics.median([s for r in reps for s in r["setup_s"]]),
        "tput_mtuples_s": statistics.median(
            [r["tuples"] / 1e6 / r["timed_s"] for r in reps]),
        "lat_p50_ms": statistics.median([x[0] for x in lat]),
        "lat_p99_ms": statistics.median([x[1] for x in lat]),
        "mem_peak_mb": statistics.median([r["mem_peak_mb"] for r in reps]),
        "ok_ratio": 1 - stats.fail_ratio(raw["attempted"], raw["failed"]),
    }, {
        "fail_ratio": stats.fail_ratio(raw["attempted"], raw["failed"]),
        "lat_samples_per_rep": min(x[2] for x in lat),
        "reps": len(reps),
    }


def median_of_dicts(dicts):
    return {k: statistics.median([d[k] for d in dicts]) for k in dicts[0]}


def per_layer(raw, kind, kernels):
    traced = [r for r in raw["reps"] if r["traced"]]
    untraced = [r for r in raw["reps"] if not r["traced"]]
    # serve-mixed: algos is the offline reference run of the tenants' windows
    # (workloads.json serve_runner_rows).
    m = median_of_dicts([runner_layers(r["algos"]) for r in traced])
    if kind == "offline":
        m["datagen.gen_ms"] = 1000 * statistics.median(
            [s for r in traced for s in r["setup_s"]])
    else:
        m["datagen.gen_ms"] = statistics.median([r["gen_ms"] for r in traced])
        proto = [r["protocol"] for r in traced]
        tuples = sum(p["tuples"] for p in proto)
        m["protocol.encode_ns_per_tuple"] = \
            sum(p["encode_ms"] for p in proto) * 1e6 / tuples
        m["protocol.parse_ns_per_tuple"] = \
            sum(p["parse_ms"] for p in proto) * 1e6 / tuples
        m["protocol.bytes_per_tuple"] = sum(p["bytes"] for p in proto) / tuples
        m["client.hello_ms"] = statistics.median(
            [h for r in traced for h in r["hello_ms"]])
        m["client.end_to_bye_ms"] = statistics.median(
            [max(r["end_to_bye_ms"]) for r in traced])
        # The daemon's queue waits do not depend on client-side tracing, so
        # every repetition contributes (p90 needs 100 samples).
        waits = [w for r in raw["reps"] for w in r["queue_wait_ms"]]
        m["pool.queue_wait_p50_ms"] = stats.percentile(waits, 0.50)
        m["pool.queue_wait_p90_ms"] = stats.tail_percentile(waits, 0.90)[0]
        m["pool.stolen_ratio"] = sum(r["stolen"] for r in raw["reps"]) / max(
            1, sum(r["windows"] for r in raw["reps"]))
        ingest = [r["ingest"] for r in traced]
        m["disorder.ingest_ns_per_tuple"] = (
            sum(i["ms"] for i in ingest) * 1e6
            / sum(i["tuples"] for i in ingest))
    m.update(scaling_layers(raw["scaling"]))
    m["trace.overhead_ratio"] = (
        statistics.median([r["timed_s"] for r in traced])
        / statistics.median([r["timed_s"] for r in untraced]))
    spans = raw["spans"]
    selfs = stats.self_times(spans)
    if kind == "offline":
        m["trace.timed_accounted_ratio"] = stats.accounted_ratio(
            spans, selfs, ACCOUNTING_SPANS,
            1000 * sum(r["timed_s"] for r in traced))
    m.update(kernels)
    return m, self_time_table(spans, selfs)


# The measured parts of an offline timed region: each window's runner call
# (RunResult::elapsed_ms, the runner's own clock) and the pipeline's
# segmentation (replayed outside the timed region on the benchmark's clock).
ACCOUNTING_SPANS = ("runner.run", "window_pipeline.segment")


def self_time_table(spans, selfs):
    """{span name: (count, total ms, self ms)}."""
    table = {}
    for s, own in zip(spans, selfs):
        c, total, self_ms = table.get(s["name"], (0, 0.0, 0.0))
        table[s["name"]] = (c + 1, total + s["end_ms"] - s["start_ms"],
                            self_ms + own)
    return table


def kernel_layers(bdir):
    out = run_group([os.path.join(bdir, "kernels_microbench"), "--json"],
                    KERNELS_DEADLINE_S)
    if out is None:
        raise RuntimeError("kernels_microbench failed")
    speedups = json.loads(out)["speedups"]
    return {
        "partition.swwc_speedup": speedups["scatter/bits=10"],
        "hash.simd_probe_speedup": speedups["probe/linear/n=1m"],
        "hash.lockfree_build_speedup": speedups["build/shared/n=64k"],
    }


# --- Report ------------------------------------------------------------------

def unit_of(spec, name):
    for table in ("end_to_end", "per_layer", "report_only"):
        for m in spec[table]:
            if m["name"] == name and "unit" in m:
                return m["unit"]
    if name.endswith("_ns_per_in") or name.endswith("ns_per_match"):
        return "ns"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("matches_per_in"):
        return "count"
    return "ratio"


def run_workload(args, spec):
    w = spec["workloads"].get(args.workload)
    if w is None:
        log("perfbench: unknown workload %r (have: %s)"
            % (args.workload, ", ".join(spec["workloads"])))
        return 2
    bdir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")
    if not build(bdir):
        return 2
    argv = [os.path.join(bdir, "perfbench_bin"),
            "--workload=" + args.workload, "--kind=" + w["kind"],
            "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
            "--trace=%d" % args.trace]
    argv += ["--%s=%s" % (k, v) for k, v in w["params"].items()]
    if w["kind"] == "serve":
        argv += ["--serve_bin=" + os.path.join(bdir, "iawj_serve"),
                 "--socket=" + os.path.join(bdir, "serve-%d.sock"
                                            % os.getpid())]
    run_start = time.monotonic()
    out = run_group(argv, RUN_DEADLINE_S)
    if out is None:
        return 3
    raw = json.loads(out.strip().splitlines()[-1])
    kind = w["kind"]

    e2e, extra = end_to_end(raw, kind)
    print("perfbench %s seed=%d trace=%d: %d repetitions (%d untraced), "
          "%.1f s" % (args.workload, args.seed, args.trace, len(raw["reps"]),
                      extra["reps"], time.monotonic() - run_start))
    print("  why: " + w["why"])
    for name, value in e2e.items():
        print("  %-32s %14.6g %s" % (name, value, unit_of(spec, name)))
    print("  %-32s %14.6g ratio  (%d failed of %d attempted)"
          % ("fail_ratio", extra["fail_ratio"], raw["failed"],
             raw["attempted"]))
    print("  latency samples per repetition: %d (p99 needs >= 1000)"
          % extra["lat_samples_per_rep"])
    for e in raw["errors"]:
        print("  WRONG: " + e)
    attempted, failed = raw["attempted"], raw["failed"]

    if args.trace:
        layers, selfs = per_layer(raw, kind,
                                  kernel_layers(bdir))
        print("per-layer metrics (traced repetitions):")
        for name in sorted(layers):
            print("  %-40s %14.6g %s" % (name, layers[name],
                                         unit_of(spec, name)))
        print("span self times (all traced repetitions):")
        for name, (count, total, own) in sorted(
                selfs.items(), key=lambda kv: -kv[1][2]):
            print("  %-28s n=%-6d total %10.2f ms  self %10.2f ms"
                  % (name, count, total, own))
        if "trace.timed_accounted_ratio" in layers:
            # One more checked operation: the spans must explain the wall.
            tol = spec["accounted_tolerance"]
            ratio = layers["trace.timed_accounted_ratio"]
            ok = abs(ratio - 1) <= tol
            attempted += 1
            if not ok:
                failed += 1
                print("  WRONG: %s self times account for %.3f of the "
                      "timed wall (tolerance %g)"
                      % (" + ".join(ACCOUNTING_SPANS), ratio, tol))
        spans_dir = os.path.join(bdir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        with open(os.path.join(spans_dir, "%s-seed%d.json"
                               % (args.workload, args.seed)), "w") as f:
            json.dump(raw["spans"], f)
        names = [m["name"] for m in spec["per_layer"]]
        metrics = {n: {"value": layers[n], "unit": unit_of(spec, n)}
                   for n in names}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.save:
        with open(args.save, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, **result}) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


# --- Compare mode -------------------------------------------------------------

def load_set(path):
    """{(workload, seed): metrics} of untraced runs saved with --save."""
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                if not r.get("trace"):
                    runs[(r["workload"], r["seed"])] = r["metrics"]
    return runs


def compare(spec, parent_path, change_path):
    parent, change = load_set(parent_path), load_set(change_path)
    workloads = sorted({w for w, _ in parent} & {w for w, _ in change})
    print("%-13s %-15s %12s %25s %12s %25s %5s  %s" % (
        "workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]",
        "won", "verdict"))
    for w in workloads:
        seeds = sorted({s for ww, s in parent if ww == w}
                       & {s for ww, s in change if ww == w})
        for m in spec["end_to_end"]:
            p = [parent[(w, s)][m["name"]]["value"] for s in seeds]
            c = [change[(w, s)][m["name"]]["value"] for s in seeds]
            v = stats.verdict(p, c, m["better"], m["bound"])
            print("%-13s %-15s %12.5g [%11.5g, %11.5g] %12.5g [%11.5g, %11.5g]"
                  " %4.0f%%  %s" % (
                      w, m["name"], v["parent_median"], v["parent_q1"],
                      v["parent_q3"], v["change_median"], v["change_q1"],
                      v["change_q3"], 100 * v["won"], v["verdict"]))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", help="append this run's result to a JSONL file")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                    help="compare two --save result sets")
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own arithmetic tests")
    args = ap.parse_args()
    spec = load_spec()
    if args.selftest:
        import unittest
        suite = unittest.defaultTestLoader.discover(HERE, "test_*.py")
        ok = unittest.TextTestRunner(stream=sys.stderr).run(suite)
        return 0 if ok.wasSuccessful() else 1
    if args.compare:
        return compare(spec, *args.compare)
    if not args.workload:
        ap.error("--workload is required")
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
