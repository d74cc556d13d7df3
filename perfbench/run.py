#!/usr/bin/env python3
"""Repository benchmark: builds the system from source and runs one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --steadiness [--runs N] [--workloads a,b]

Workloads: train, serve-mgbr, serve-dot (see perfbench/README.md;
BENCHMARK.json lists the serving two). train runs a fixed amount of
work, the serving workloads split --seconds between their windows. A
single run prints a human report, then as its last stdout line one JSON
object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. --all runs every workload untraced (with the max_qps search)
and traced, printing every metric under its report name. --steadiness
runs two alternating sets of runs and compares them against the bounds.
Outputs (run records, Chrome traces) go to .bench_out/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("train", "serve-mgbr", "serve-dot")
REQUEST_LANE = 1000


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path) as f:
        return json.load(f)


# ---- build and environment ------------------------------------------


def build():
    """Configures and builds perfbench/ (and ../src) in Release."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no system sources under %s/src; run from a full checkout" % ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(bdir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=env, timeout=850).returncode
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def bench_env():
    """Pins the kernel pool to one thread and clears every other MGBR_*
    switch (SIMD, arena, telemetry, tracing, faults, fast mode)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MGBR_")}
    env["MGBR_NUM_THREADS"] = "1"
    return env


def source_id():
    """Commit when the checkout is a git work tree, else a hash of the
    sources (the benchmark checkout carries no history)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return "git " + r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sha256 " + h.hexdigest()[:16]


# ---- one run ----------------------------------------------------------


def run_binary(binary, args, timeout):
    try:
        p = subprocess.run([binary] + args, env=bench_env(), cwd=ROOT,
                           capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die("timed out: " + " ".join(args))
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    try:
        data = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("no result from: " + " ".join(args))
    return p.returncode, data


def workload_args(workload, config):
    wl = config[workload]
    if workload == "train":
        return ["--expect.%s=%r" % kv for kv in sorted(wl["expect"].items())]
    return ["--lo-qps=%r" % wl["lo_qps"], "--hi-qps=%r" % wl["hi_qps"]]


def measure(binary, workload, seed, seconds, trace, max_qps=False):
    """Runs one workload once; returns the run record."""
    config = load_json(os.path.join(HERE, "workloads.json"))
    args = ["--workload=" + workload, "--seed=%d" % seed,
            "--seconds=%r" % float(seconds), "--trace=%d" % trace]
    args += workload_args(workload, config)
    setups = []
    if not trace:
        # setup_s is the median of repeated cold starts, each in a fresh
        # process; the measured run's own set-up is one of them.
        for _ in range(config["setup_repeats"][workload] - 1):
            rc, data = run_binary(binary, args + ["--setup-only=1"], 120)
            if rc != 0:
                die("set-up failed: " + "; ".join(data["errors"]))
            setups.append(data["values"]["setup_s"])
    os.makedirs(OUT, exist_ok=True)
    trace_path = os.path.join(OUT, "%s-seed%d.trace.json" % (workload, seed))
    extra = ["--trace-out=" + trace_path] if trace else []
    if max_qps:
        extra.append("--max-qps=1")
    rc, data = run_binary(binary, args + extra, 175)
    setups.append(data["values"]["setup_s"])
    phases = [p for p in data["phases"] if p["name"] != "max_qps_probes"]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "returncode": rc, "raw": data,
        "setup_samples": setups,
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "env": {"source": source_id(),
                "build_type": data["info"].get("build_type"),
                "cxx_flags": data["info"].get("cxx_flags"),
                "nproc": os.cpu_count(), "kernel_threads": 1,
                "seed": seed},
    }
    record["correct"] = (rc == 0 and not data["errors"]
                         and record["failed"] == 0)
    record["metrics"] = (per_layer(record, trace_path) if trace
                         else end_to_end(record))
    with open(os.path.join(OUT, "%s-seed%d-trace%d.json"
                           % (workload, seed, trace)), "w") as f:
        json.dump(record, f, indent=1)
    return record


# ---- end-to-end metrics -----------------------------------------------


def end_to_end(record):
    """The contract metrics: every workload reports the same names.
    primary_ms / secondary_ms are the workload's two headline times
    (train: one epoch / one evaluation pass; serving: p50 latency at the
    lo / hi offered rate)."""
    v = record["raw"]["values"]
    if record["workload"] == "train":
        primary = v["train_epoch_best_s"] * 1e3
        secondary = v["eval_pass_best_s"] * 1e3
    else:
        primary, secondary = v["p50_best_ms.lo"], v["p50_best_ms.hi"]
    return {
        "setup_s": {"value": statistics.median(record["setup_samples"]),
                    "unit": "s"},
        "peak_rss_mb": {"value": v["peak_rss_mb"], "unit": "MB"},
        "primary_ms": {"value": primary, "unit": "ms"},
        "secondary_ms": {"value": secondary, "unit": "ms"},
    }


def report_end_to_end(record):
    """Human report under the metric names of perfbench/README.md."""
    w, v = record["workload"], record["raw"]["values"]
    n_setup = len(record["setup_samples"])
    rows = [("setup_s", statistics.median(record["setup_samples"]), "s",
             "median of %d cold set-ups" % n_setup),
            ("peak_rss_mb", v["peak_rss_mb"], "MB", "")]
    if w == "train":
        info = record["raw"]["info"]
        rows += [("train_epoch_s", v["train_epoch_s"], "s",
                  "median of %s Trainer::RunEpoch: %s; best %.4f (primary_ms)"
                  % (info.get("epochs"), info.get("epoch_s"),
                     v["train_epoch_best_s"])),
                 ("eval_pass_s", v["eval_pass_s"], "s",
                  "median of %s passes: %s; fastest stages sum to %.4f "
                  "(secondary_ms)"
                  % (info.get("eval_passes"), info.get("eval_pass_s"),
                     v["eval_pass_best_s"]))]
    else:
        for op in ("lo", "hi"):
            n = int(v["requests." + op])
            rows.append(("p50_ms." + op, v["p50_ms." + op], "ms",
                         "%d requests; per window %s; best %.3f (%s)" % (
                             n, record["raw"]["info"]["window_p50_ms." + op],
                             v["p50_best_ms." + op],
                             "primary_ms" if op == "lo" else "secondary_ms")))
            q = v["tail_q." + op]
            if q >= 0.99:
                rows.append(("p99_ms." + op, v["tail_ms." + op], "ms", ""))
            else:
                rows.append(("p99_ms." + op, float("nan"), "ms",
                             "n/a: %d samples; p%d = %.3f ms" % (
                                 n, round(q * 100), v["tail_ms." + op])))
        if "max_qps" in v:
            rows.append(("max_qps", v["max_qps"], "1/s",
                         "p99 limit %g ms" % v["max_qps_limit_ms"]))
    attempted, failed = record["attempted"], record["failed"]
    rows.append(("fail_frac", failed / max(1, attempted), "ratio",
                 "%d failed / %d attempted" % (failed, attempted)))
    lines = ["%-16s %14.6g %-5s %s" % r for r in rows]
    lines.append("phases: " + ", ".join(
        "%s %d/%d failed" % (p["name"], p["failed"], p["attempted"])
        for p in record["raw"]["phases"]))
    return lines


# ---- per-layer metrics and the traced-run report -------------------------


def load_spans(path):
    spans = {}
    for e in load_json(path)["traceEvents"]:
        a = e["args"]
        spans[a["span"]] = {"name": e["name"], "ts": e["ts"], "dur": e["dur"],
                            "lane": e["tid"], "parent": a["parent"],
                            "phase": a["phase"], "self": e["dur"]}
    for s in spans.values():
        if s["parent"] >= 0:
            spans[s["parent"]]["self"] -= s["dur"]
    return spans


def ancestor(spans, s, name):
    while s["parent"] >= 0:
        s = spans[s["parent"]]
        if s["name"] == name:
            return s
    return None


# name, unit, how the samples are taken, span or value, phase/group.
PER_LAYER = [
    ("data.sample_ms", "ms", "per", "data.sample", "bench.epoch"),
    ("core.refresh_ms", "ms", "dur", "core.refresh", None),
    ("core.loss_fwd_ms", "ms", "dur", "core.loss_fwd", None),
    ("tensor.backward_ms", "ms", "dur", "tensor.backward", None),
    ("tensor.optim_ms", "ms", "per", "tensor.optim", "bench.step"),
    ("eval.sampled_ms", "ms", "dur", "eval.sampled", None),
    ("eval.full_rank_ms", "ms", "dur", "eval.full_rank", None),
    ("eval.rank_self_ms", "ms", "self", "eval.full_rank", None),
    ("core.score_a_all_ms", "ms", "dur", "core.score_a_all", None),
    ("core.score_b_all_ms", "ms", "dur", "core.score_b_all", None),
    ("models.score_a_all_ms", "ms", "dur", "models.score_a_all", None),
    ("models.score_b_all_ms", "ms", "dur", "models.score_b_all", None),
    ("data.build_ms", "ms", "dur", "data.build", None),
    ("models.refresh_ms", "ms", "dur", "models.refresh", None),
    ("serve.install_ms", "ms", "dur", "serve.install", None),
    ("models.table_mb", "MB", "value", "models.table_mb", None),
    ("serve.queue_wait_ms.lo", "ms", "dur", "serve.queue_wait", "lo"),
    ("serve.queue_wait_ms.hi", "ms", "dur", "serve.queue_wait", "hi"),
    ("serve.batch_wait_ms.lo", "ms", "dur", "serve.batch_wait", "lo"),
    ("serve.batch_wait_ms.hi", "ms", "dur", "serve.batch_wait", "hi"),
    ("serve.score_ms.lo", "ms", "dur", "serve.score", "lo"),
    ("serve.score_ms.hi", "ms", "dur", "serve.score", "hi"),
    ("serve.score_self_ms.lo", "ms", "self", "serve.batch_score", "lo"),
    ("serve.score_self_ms.hi", "ms", "self", "serve.batch_score", "hi"),
    ("serve.batch_size.lo", "count", "value", "serve.batch_size.lo", None),
    ("serve.batch_size.hi", "count", "value", "serve.batch_size.hi", None),
    ("serve.coalesced_frac.hi", "ratio", "value", "serve.coalesced_frac.hi",
     None),
    ("serve.gen_lag_ms.lo", "ms", "p99", "serve.gen_lag", "lo"),
    ("serve.gen_lag_ms.hi", "ms", "p99", "serve.gen_lag", "hi"),
]


def layer_samples(spans, values, how, key, arg):
    """Samples (ms) of one per-layer metric, or the program's value."""
    if how == "value":
        return [values.get(key, 0.0)]
    if how == "per":  # summed per enclosing `arg` span (epoch, step)
        groups = {}
        for s in spans.values():
            if s["name"] == key:
                g = ancestor(spans, s, arg)
                if g is not None:
                    groups[id(g)] = groups.get(id(g), 0) + s["dur"]
        return [x / 1e3 for x in groups.values()]
    field = "self" if how == "self" else "dur"
    return [s[field] / 1e3 for s in spans.values()
            if s["name"] == key and (arg is None or s["phase"] == arg)]


def per_layer(record, trace_path):
    spans = load_spans(trace_path)
    values = record["raw"]["values"]
    metrics, counts = {}, {}
    for name, unit, how, key, arg in PER_LAYER:
        xs = layer_samples(spans, values, how, key, arg)
        if how == "p99":
            value = quantile(xs, 0.99)
        elif how == "value":
            value = xs[0]
        else:
            value = statistics.median(xs) if xs else 0.0
        metrics[name] = {"value": value, "unit": unit}
        counts[name] = 0 if how == "value" else len(xs)
    record["layer_counts"] = counts
    record["accounting"] = accounting(spans)
    return metrics


def quantile(xs, q):
    if not xs:
        return 0.0
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def accounting(spans):
    """Self time per span name on each group of lanes, with the
    unattributed remainder (root self time): rows sum to the wall time,
    which is the summed duration of the group's root spans."""
    lanes = {"main": set(), "workers": set(), "requests": {REQUEST_LANE}}
    for s in spans.values():
        if s["name"] == "workload":
            lanes["main"].add(s["lane"])
        elif s["name"] == "serve.worker":
            lanes["workers"].add(s["lane"])
    out = {}
    for group, members in lanes.items():
        rows, wall, rest = {}, 0, 0
        for s in spans.values():
            if s["lane"] not in members:
                continue
            if s["parent"] < 0:
                wall += s["dur"]
                rest += s["self"]
                continue
            row = rows.setdefault(s["name"], [0, 0])
            row[0] += 1
            row[1] += s["self"]
        if wall:
            out[group] = {"wall_ms": wall / 1e3, "unattributed_ms": rest / 1e3,
                          "rows": {k: {"n": n, "self_ms": t / 1e3}
                                   for k, (n, t) in rows.items()}}
    return out


def report_per_layer(record):
    v = record["raw"]["values"]
    lines = ["%-26s %12s %-5s %8s" % ("per-layer metric", "value", "unit",
                                       "samples")]
    for name, unit, _, _, _ in PER_LAYER:
        lines.append("%-26s %12.5g %-5s %8d" % (
            name, record["metrics"][name]["value"], unit,
            record["layer_counts"][name]))
    for group, acc in record["accounting"].items():
        wall = acc["wall_ms"]
        lines.append("%s lanes: wall %.1f ms (self time by span; layer = "
                     "name prefix)" % (group, wall))
        rows = sorted(acc["rows"].items(), key=lambda kv: -kv[1]["self_ms"])
        total = acc["unattributed_ms"]
        for name, r in rows:
            total += r["self_ms"]
            lines.append("  %-22s n=%-7d self %10.2f ms %6.2f%%" % (
                name, r["n"], r["self_ms"], 100 * r["self_ms"] / wall))
        lines.append("  %-22s %9s self %10.2f ms %6.2f%%" % (
            "unattributed", "", acc["unattributed_ms"],
            100 * acc["unattributed_ms"] / wall))
        lines.append("  rows + unattributed = %.2f ms (wall %.2f ms)"
                     % (total, wall))
    overheads = {k: x for k, x in v.items() if k.startswith("overhead.")}
    lines.append("tracing overhead (traced minus untraced): " + ", ".join(
        "%s %+.4g" % kv for kv in sorted(overheads.items())))
    if "replica_loss_check" in record["raw"]["info"]:
        lines.append("replica loss check vs Trainer::RunEpoch: "
                     + record["raw"]["info"]["replica_loss_check"])
    return lines


# ---- modes ------------------------------------------------------------


def print_run(record):
    w = record["workload"]
    print("== %s seed=%d seconds=%g trace=%d" % (
        w, record["seed"], record["seconds"], record["trace"]))
    print("env " + json.dumps(record["env"], sort_keys=True))
    lines = (report_per_layer(record) if record["trace"]
             else report_end_to_end(record))
    for line in lines:
        print("  " + line)
    for e in record["raw"]["errors"]:
        print("  FAIL " + e)


def result_line(record):
    return json.dumps({"correct": record["correct"],
                       "attempted": max(1, record["attempted"]),
                       "failed": record["failed"],
                       "metrics": record["metrics"]})


def run_all(binary, seed, seconds):
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            record = measure(binary, w, seed, seconds, trace,
                             max_qps=(trace == 0 and w != "train"))
            print_run(record)
            ok = ok and record["correct"]
    return 0 if ok else 1


def steadiness(binary, workloads, runs, seconds):
    """Two alternating sets (A1 B1 B2 A2 A3 B3 ...) of one build, each
    run on its own seed. Prints both sets' medians and quartiles per
    (workload, end-to-end metric), whether the medians agree within the
    bound in both directions, the pooled spread against a third of the
    bound, and the metrics that move more than a tenth from run to run."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    values = {w: {"A": [], "B": []} for w in workloads}
    for i in range(runs):
        for w in workloads:
            for side in (("A", "B") if i % 2 == 0 else ("B", "A")):
                seed = (1000 if side == "A" else 2000) + i
                record = measure(binary, w, seed, seconds, 0)
                if not record["correct"]:
                    print_run(record)
                    die("run failed: %s seed %d" % (w, seed))
                values[w][side].append(
                    {k: m["value"] for k, m in record["metrics"].items()})
                print("run %s %s seed=%d %s" % (w, side, seed, json.dumps(
                    values[w][side][-1], sort_keys=True)), flush=True)
    ok, movers = True, []
    print("%-11s %-13s %-30s %-30s %7s %6s %s" % (
        "workload", "metric", "set A median [q1 q3] iqr",
        "set B median [q1 q3] iqr", "iqr all", "bound", "verdict"))
    for w in workloads:
        for name, spec in bounds.items():
            a = [r[name] for r in values[w]["A"]]
            b = [r[name] for r in values[w]["B"]]
            ma, mb = statistics.median(a), statistics.median(b)
            # Both sets run the same code: either one worse than the
            # other by more than the bound is a disagreement.
            agree = max((mb - ma) / ma, (ma - mb) / mb) <= spec["bound"]
            spreads = [spread(x) for x in (a, b, a + b)]
            steady = name == "setup_s" or spreads[2] <= spec["bound"] / 3
            ok = ok and agree and (name == "setup_s"
                                   or max(spreads[:2]) <= spec["bound"])
            cells = []
            for xs, m, sp in ((a, ma, spreads[0]), (b, mb, spreads[1])):
                q = statistics.quantiles(xs, n=4)
                cells.append("%.5g [%.4g %.4g] %.1f%%" % (m, q[0], q[2],
                                                         100 * sp))
            print("%-11s %-13s %-30s %-30s %6.1f%% %5.0f%% %s" % (
                w, name, cells[0], cells[1], 100 * spreads[2],
                100 * spec["bound"], ("agree" if agree else "DISAGREE")
                + ("" if steady else ", spread above bound/3")))
            pooled = a + b
            if (max(pooled) - min(pooled)) / statistics.median(pooled) > 0.1:
                movers.append("%s/%s" % (w, name))
    print("moves more than 10% between runs: " + (", ".join(movers) or "none"))
    return 0 if ok else 1


def spread(xs):
    """Interquartile distance over the median, as the acceptance check
    takes it (statistics.quantiles, n=4)."""
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--workloads", default=None,
                   help="for --steadiness; default: BENCHMARK.json's")
    args = p.parse_args()
    binary = build()
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    seconds = args.seconds
    if seconds is None:
        seconds = bench["run_seconds"]
    if args.all:
        return run_all(binary, args.seed, seconds)
    if args.steadiness:
        workloads = (args.workloads.split(",") if args.workloads
                     else [w["name"] for w in bench["workloads"]])
        return steadiness(binary, workloads, args.runs, seconds)
    if args.workload is None:
        die("--workload, --all or --steadiness is required")
    record = measure(binary, args.workload, args.seed, seconds, args.trace)
    print_run(record)
    print(result_line(record), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
