#!/usr/bin/env python3
"""Benchmark regression gates: every pass/fail decision CI takes on a bench
artifact, as rows of one table (GATES) read by one checker.

A gate names its reports, their format (`schema`, or None for google-benchmark
JSON), the fields each report must carry beyond those its rows read (`require`:
dotted paths; "*" spans the elements of a non-empty list or object; ":kind"
asks for a type other than a number) and its rows. A row (label, value, op,
bound, reason) passes when `value op bound` holds. A value or bound is a report
field (a dotted path), Floor(key) of BENCH_baseline.json's ci_gate, Sum(paths),
a literal (Lit(s) for a string) or a function of the inputs. Each(block, rows)
repeats rows per key of ci_gate.<block>, filling in "{key}"; By(field, {value:
rows}) applies the rows keyed by a report field's value.

Before any comparison, the schema, the `require` fields and every field and
floor a row reads must be present with the right type, or the gate raises
SchemaError and fails: a truncated artifact, a format drift or a baseline
without a floor fails loudly instead of gating on garbage.

Usage: check_bench_gate.py --<gate> BENCH_baseline.json REPORT... | --self-test
"""

import copy
import json
import math
import operator
import os
import sys
from collections import namedtuple


class SchemaError(Exception):
    """An input does not look like what its gate expects."""


class Floor(str):
    """A dotted key of BENCH_baseline.json's ci_gate block."""


class Sum(tuple):
    """The sum of several report fields: Sum(("a.b", "c.d"))."""


Lit = namedtuple("Lit", "value")
Row = namedtuple("Row", "label value op bound reason")
Each = namedtuple("Each", "block rows")
By = namedtuple("By", "field cases")
Gate = namedtuple("Gate", "inputs schema require rows")

OPS = {">=": operator.ge, ">": operator.gt, "<=": operator.le,
       "<": operator.lt, "==": operator.eq}
KINDS = {"num": (int, float), "int": int, "bool": bool, "str": str,
         "list": list, "dict": dict}
KIND_OF = {Lit: "str", bool: "bool", list: "list"}  # a literal bound's kind


def lookup(data, path, kind="num", at=""):
    """The value at dotted `path` in `data` (named `at` in errors), which must
    be of `kind`. A "*" part checks every element of a non-empty list or
    object instead, and returns None."""
    if not path:
        if not isinstance(data, KINDS[kind]):
            raise SchemaError(f"{at} is {data!r}, expected {kind}")
        return data
    part, _, rest = path.partition(".")
    if part == "*":
        items = dict(enumerate(data)) if isinstance(data, list) else data
        if not isinstance(items, dict) or not items:
            raise SchemaError(f"{at} is missing or empty")
        for key, item in items.items():
            lookup(item, rest, kind, f"{at}.{key}")
        return None
    here = f"{at}.{part}" if at else part
    if not isinstance(data, dict) or part not in data:
        raise SchemaError(f"{here} missing")
    return lookup(data[part], rest, kind, here)


class Inputs:
    """The ci_gate block and the reports, recording each path read."""

    def __init__(self, ci, reports, names):
        self.ci, self.reports, self.names, self.floors, self.fields = (
            ci, reports, names, [], [])

    def floor(self, path, kind="num"):
        self.floors.append((path, kind))
        return lookup(self.ci, path, kind, "ci_gate")

    def field(self, path, kind="num", index=0):
        self.fields.append(path)
        return lookup(self.reports[index], path, kind, self.names[index])


def medians(data):
    """run_name -> median real_time of one google-benchmark output."""
    out = {b["run_name"]: lookup(b.get("real_time"), "", "num",
                                 f"median real_time of {b['run_name']}")
           for b in data["benchmarks"] if b.get("aggregate_name") == "median"}
    if not out:
        raise SchemaError("no median entries in the bench output")
    return out


def speedup(slow, fast, pairs):
    """Geomean over (slow_run, fast_run) pairs of slow's median over fast's."""
    missing = [run for pair in pairs for times, run in zip((slow, fast), pair)
               if run not in times]
    if missing or not pairs:
        raise SchemaError(f"gate cases missing from bench output: {missing}")
    return math.exp(sum(math.log(slow[s] / fast[f]) for s, f in pairs)
                    / len(pairs))


def simd_speedup(inputs):
    on, off = map(medians, inputs.reports)
    cases = inputs.floor("gate_cases", "list")
    return speedup(off, on, [(case, case) for case in cases])


def eval_speedup(inputs):
    times = medians(inputs.reports[0])
    return speedup(times, times, inputs.floor("eval_pairs", "list"))


def telemetry_overhead(inputs):
    disabled, enabled = (sum(medians(r).values()) for r in inputs.reports)
    return disabled / enabled


GOOGLE_BENCHMARK = ("benchmarks.*.run_name:str",)
LOADGEN = ("loadgen.json",)
CHAOS_COUNTERS = (
    "crashes", "offered", "terminal", "lost", "availability", "ok",
    "shed_queue_full", "shed_deadline", "shed_load", "other", "sampled",
    "score_mismatches", "worker_restarts", "max_degrade_level",
    "final_degrade_level", "degrade_transitions")
SERVER_COUNTERS = (
    "submitted", "admitted", "shed_queue_full", "shed_deadline", "shed_load",
    "completed", "invalid", "worker_restarts")


def reconciles(name, server_name=None):
    server = f"server.{server_name or name}"
    return Row(f"chaos.{name} = {server}", f"chaos.{name}", "==", server,
               "the harness's and the server's accounting disagree")


GATES = {
    # bench_micro_engine with MGBR_SIMD=1, then MGBR_SIMD=0.
    "simd": Gate(("simd_on.json", "simd_off.json"), None, GOOGLE_BENCHMARK, (
        Row("simd-off/simd-on geomean", simd_speedup, ">=",
            Floor("min_simd_speedup_geomean"),
            "the vectorized kernels have regressed against the scalar ones"),
    )),
    # bench_serving's full-ranking passes, per-instance tape vs batched
    # no-grad: a dedup factor (instances per unique user) fixed by the seed.
    "eval": Gate(("serving.json",), None, GOOGLE_BENCHMARK, (
        Row("tape/no-grad geomean", eval_speedup, ">=",
            Floor("min_eval_nograd_speedup_geomean"),
            "batched no-grad eval has regressed against per-instance tape"),
    )),
    # bench_micro_engine with telemetry and tracing off, then on: the run
    # with them on does more work, so off may exceed it by noise only.
    "telemetry-overhead": Gate(
        ("disabled.json", "enabled.json"), None, GOOGLE_BENCHMARK, (
            Row("disabled/enabled median sum", telemetry_overhead, "<=",
                Floor("telemetry_overhead.max_ratio"),
                "telemetry costs time when off (zero-cost-when-off contract)"),
        )),
    # bench_loadgen at a fixed offered load, exporter off.
    "serving": Gate(LOADGEN, "mgbr-loadgen-v1", (
        "results.offered", "results.completed", "results.latency_ms.p50",
        "results.latency_ms.p90", "results.latency_ms.max"), (
        Row("completed qps", "results.qps", ">=", Floor("serving_slo.min_qps"),
            "batching/caching no longer sustains the offered load"),
        Row("p99 latency ms", "results.latency_ms.p99", "<=",
            Floor("serving_slo.max_p99_ms"), "tail latency has regressed"),
        Row("shed fraction", "results.shed_fraction", "<=",
            Floor("serving_slo.max_shed_fraction"), "load shed under the SLO"),
    )),
    # bench_loadgen's scrape run: its shed burst must dump the recorder.
    "flight-dump": Gate(LOADGEN, "mgbr-loadgen-v1", (), (
        Row("flight dumps", "server.flight_dumps", ">=", 1,
            "the shed burst did not dump the flight recorder"),
    )),
    # bench_loadgen --retrieval=1: Task A served through the index.
    "two-stage": Gate(LOADGEN, "mgbr-loadgen-v1", (), (
        Row("retrieval enabled", "config.retrieval", "==", True,
            "the run did not enable two-stage retrieval"),
        Row("two-stage requests", "server.two_stage", ">", 0,
            "no request was served through the two-stage path"),
    )),
    # bench_retrieval: two-stage top-10 against brute force.
    "retrieval": Gate(("retrieval.json",), "mgbr-retrieval-v1", (
        "config.k:int", "results.cases.*.name:str",
        "results.cases.*.recall_at_k", "results.cases.*.brute_ns",
        "results.cases.*.two_stage_ns", "results.cases.*.speedup"), (
        Row("recall cutoff k", "config.k", "==", 10,
            "the floors are for recall@10; run bench_retrieval --k=10"),
        Row("min recall@10", "results.min_recall_at_k", ">=",
            Floor("retrieval.min_recall_at_10"), "true top-10 items dropped"),
        Row("speedup geomean", "results.geomean_speedup", ">=",
            Floor("retrieval.min_speedup_geomean"),
            "the two-stage path no longer beats brute-force scoring"),
    )),
    # bench_quant: each quantized mode's ranking against fp32.
    "quant": Gate(("quant.json",), "mgbr-quant-v1", (
        "config.k:int", "results.cases.*.name:str", "results.cases.*.mode:str",
        "results.cases.*.topk_overlap", "results.cases.*.kendall_tau",
        "results.cases.*.footprint_ratio", "results.cases.*.speedup",
        "results.modes.*.min_topk_overlap",
        "results.modes.*.min_footprint_ratio",
        "results.modes.*.geomean_speedup"), (
        Row("overlap cutoff k", "config.k", "==", 10,
            "the floors are for top-10; run bench_quant --k=10"),
        Each("quant", (
            Row("{key} min overlap@10", "results.modes.{key}.min_topk_overlap",
                ">=", Floor("quant.{key}.min_topk_overlap"),
                "the quantized ranking no longer agrees with fp32"),
            Row("{key} min footprint ratio",
                "results.modes.{key}.min_footprint_ratio", ">=",
                Floor("quant.{key}.min_footprint_ratio"),
                "the quantized table does not deliver its storage cut"),
            Row("{key} speedup geomean", "results.modes.{key}.geomean_speedup",
                ">=", Floor("quant.{key}.min_speedup"),
                "the quantized path no longer beats the fp32 scorer"),
        )),
    )),
    # bench_loadgen --quant=int8: the server scores off the int8 view.
    "quant-serving": Gate(LOADGEN, "mgbr-loadgen-v1", (), (
        Row("quantized view", "quant.supported", "==", True,
            "gbgcn must expose a quantized view"),
        Row("quant mode", "quant.mode", "==", Lit("int8"),
            "the run did not serve the int8 mode"),
        Row("model bytes", "quant.model_bytes", "<", "quant.fp32_bytes",
            "the served table is no smaller than fp32"),
        Row("quant-scored requests", "server.quant_scored", ">", 0,
            "no request was scored off the quantized view"),
    )),
    # bench_loadgen --chaos=<schedule>. A crashed run writes no report; the
    # harness's chaos block and the server's own block must reconcile.
    "chaos": Gate(("chaos.json",), "mgbr-chaos-v1", (
        *(f"chaos.{name}" for name in CHAOS_COUNTERS), "chaos.violations:list",
        "swap.swap_count", "swap.swap_rejected", "swap.rollbacks",
        "swap.load_retries", *(f"server.{n}" for n in SERVER_COUNTERS)), (
        Row("crashes", "chaos.crashes", "==", 0,
            "the serving stack did not survive the schedule"),
        Row("lost requests", "chaos.lost", "==", 0,
            "the exactly-one-terminal-status contract is broken"),
        Row("availability", "chaos.availability", ">=",
            Floor("chaos.min_availability"), "too many requests failed"),
        Row("in-run violations", "chaos.violations", "==", [],
            "the harness saw a violation during the run"),
        Row("chaos.terminal = sum of outcome classes", "chaos.terminal", "==",
            Sum(("chaos.ok", "chaos.shed_queue_full", "chaos.shed_deadline",
                 "chaos.shed_load", "chaos.other")),
            "a terminal request has no outcome class"),
        reconciles("offered", "submitted"),
        *map(reconciles, ("shed_queue_full", "shed_deadline", "shed_load",
                          "worker_restarts")),
        By("config.schedule", {
            "corrupt-swap": (
                Row("swap rejections", "swap.swap_rejected", ">=", 2,
                    "both the bit-flipped and the NaN checkpoint must fail"),
                Row("rollbacks", "swap.rollbacks", ">=", 1,
                    "Rollback() must restore the last-known-good version"),
                Row("bitwise-verified responses", "chaos.sampled", ">", 0,
                    "no OK response was verified against its version"),
                Row("score mismatches", "chaos.score_mismatches", "==", 0,
                    "version attribution is broken"),
            ),
            "worker-stall": (
                Row("watchdog restarts", "chaos.worker_restarts", ">=", 1,
                    "the stall was never detected"),
                Row("ok requests", "chaos.ok", "==", "chaos.offered",
                    "a watchdog restart dropped admitted work"),
            ),
            "overload": (
                Row("peak degrade tier", "chaos.max_degrade_level", ">=", 4,
                    "sustained overload must reach the shed tier (4)"),
                Row("final degrade tier", "chaos.final_degrade_level", "==", 0,
                    "the ladder must release once the burst stops"),
                Row("load-shed requests", "chaos.shed_load", ">", 0,
                    "the shed tier dropped no load at admission"),
            ),
        }),
    )),
}


def resolve(term, kind, inputs):
    if isinstance(term, Floor):
        return inputs.floor(term)
    if isinstance(term, Sum):
        return sum(inputs.field(path) for path in term)
    if isinstance(term, Lit):
        return term.value
    if isinstance(term, str):
        return inputs.field(term, kind)
    return term(inputs) if callable(term) else term


def active_rows(rows, inputs):
    for row in rows:
        if isinstance(row, Each):
            block = inputs.floor(row.block, "dict")
            if not block:
                raise SchemaError(f"ci_gate.{row.block} is empty")
            for key in sorted(block):
                yield from (Row(*(type(t)(t.format(key=key))
                                  if isinstance(t, str) else t for t in r))
                            for r in row.rows)
        elif isinstance(row, By):
            value = inputs.field(row.field, "str")
            if value not in row.cases:
                raise SchemaError(f"{row.field} is {value!r}, expected one "
                                  f"of {sorted(row.cases)}")
            yield from active_rows(row.cases[value], inputs)
        else:
            yield row


def evaluate(gate, ci, reports, names=None):
    """([(row, value, bound)] per row that applies, Inputs); raises first."""
    names = names or [f"report {i + 1}" for i in range(len(reports))]
    inputs = Inputs(ci, reports, names)
    for index, name in enumerate(names):
        if gate.schema is not None:
            schema = inputs.field("schema", "str", index)
            if schema != gate.schema:
                raise SchemaError(f"{name}: schema is {schema!r}, expected "
                                  f"{gate.schema!r}")
        for spec in gate.require:
            path, _, kind = spec.partition(":")
            inputs.field(path, kind or "num", index)
    rows = [(row, resolve(row.value, KIND_OF.get(type(row.bound), "num"),
                          inputs), resolve(row.bound, "num", inputs))
            for row in active_rows(gate.rows, inputs)]
    return rows, inputs


def failures(rows):
    return [row.label for row, value, bound in rows
            if not OPS[row.op](value, bound)]


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise SchemaError(f"{path}: unreadable or not JSON ({e})") from None


def run(name, baseline_path, report_paths):
    try:
        ci = lookup(load(baseline_path), "ci_gate", "dict", baseline_path)
        rows, _ = evaluate(GATES[name], ci,
                           [load(path) for path in report_paths], report_paths)
    except SchemaError as e:
        print(f"ERROR: {e}")
        return 1
    failed = failures(rows)
    for row, value, bound in rows:
        floor = isinstance(row.bound, Floor) and f" (ci_gate.{row.bound})"
        print(f"{'FAIL' if row.label in failed else 'ok':4s}  {row.label}: "
              f"{value!r} {row.op} {bound!r}{floor or ''}")
        if row.label in failed:
            print(f"ERROR: {row.reason}", *(
                value if isinstance(value, list) else ()), sep="\nERROR:   ")
    print(f"ERROR: the {name} gate fails." if failed else
          f"OK: the {name} gate holds.")
    return 1 if failed else 0


# --- self-test, generated from the table ------------------------------------

SIMD_ON = {"BM_DenseGemm/64": 1.0, "BM_MtlForwardBackward/64": 2.0}
EVAL = {"BM_EvalFullRankA_TapePerInstance": 8.0,
        "BM_EvalFullRankA_NoGradBatched": 2.0}
SPMM = {"BM_SpMM/10000": 100.0}
SAMPLE_CI = {
    "gate_cases": list(SIMD_ON), "min_simd_speedup_geomean": 1.5,
    "eval_pairs": [list(EVAL)], "min_eval_nograd_speedup_geomean": 2.5,
    "telemetry_overhead": {"max_ratio": 1.02},
    "serving_slo": dict(min_qps=2150, max_p99_ms=15.0, max_shed_fraction=0.01),
    "retrieval": {"min_recall_at_10": 0.98, "min_speedup_geomean": 3.0},
    "quant": {mode: dict(zip(("min_topk_overlap", "min_footprint_ratio",
                              "min_speedup"), floors))
              for mode, floors in (("bf16", (0.95, 2.0, 2.0)),
                                   ("int8", (0.90, 3.5, 1.5)))},
    "chaos": {"min_availability": 0.99},
}


def bench(times, scale=1):
    """A google-benchmark output with the given median times."""
    return {"benchmarks": [
        {"run_name": run, "aggregate_name": "median", "real_time": t * scale}
        for run, t in times.items()]}


LOADGEN_SAMPLE = {
    "schema": "mgbr-loadgen-v1", "config": {"retrieval": True},
    "results": {"offered": 20000, "completed": 20000, "qps": 2500.0,
                "shed_fraction": 0.0, "latency_ms": {
                    "p50": 1.0, "p90": 1.5, "p99": 2.0, "max": 9.0}},
    "server": {"flight_dumps": 1, "two_stage": 2170, "quant_scored": 900},
    "quant": {"supported": True, "mode": "int8", "model_bytes": 2250,
              "fp32_bytes": 8000},
}
RETRIEVAL_SAMPLE = {
    "schema": "mgbr-retrieval-v1", "config": {"k": 10},
    "results": {"cases": [{"name": "GBGCN", "recall_at_k": 0.99, "speedup": 6,
                           "brute_ns": 6e5, "two_stage_ns": 1e5}],
                "geomean_speedup": 6.0, "min_recall_at_k": 0.99},
}
QUANT_MODES = {"bf16": (0.99, 2.0, 3.5), "int8": (0.97, 3.56, 1.8)}
QUANT_SAMPLE = {
    "schema": "mgbr-quant-v1", "config": {"k": 10}, "results": {
        "cases": [{"name": "GBGCN", "mode": mode, "topk_overlap": o,
                   "kendall_tau": 0.997, "footprint_ratio": f, "speedup": s}
                  for mode, (o, f, s) in QUANT_MODES.items()],
        "modes": {mode: {"min_topk_overlap": o, "min_footprint_ratio": f,
                         "geomean_speedup": s}
                  for mode, (o, f, s) in QUANT_MODES.items()}}}


def chaos_sample(schedule, n=256):
    chaos = dict(dict.fromkeys(CHAOS_COUNTERS, 0), offered=n, terminal=n,
                 ok=n, availability=1.0, sampled=n, violations=[])
    server = dict(dict.fromkeys(SERVER_COUNTERS, 0), submitted=n, admitted=n,
                  completed=n)
    if schedule == "worker-stall":
        chaos.update(worker_restarts=2, sampled=0)
        server.update(worker_restarts=2)
    if schedule == "overload":
        chaos.update(ok=n - 60, shed_queue_full=40, shed_load=20, sampled=0,
                     max_degrade_level=4)
        server.update(shed_queue_full=40, shed_load=20)
    return {"schema": "mgbr-chaos-v1", "config": {"schedule": schedule},
            "chaos": chaos, "server": server, "swap": dict(
                swap_count=2, swap_rejected=2, rollbacks=1, load_retries=0)}


# (sample, gate, passing reports, reports failing a computed row or None).
SAMPLES = (
    ("simd", "simd", [bench(SIMD_ON), bench(SIMD_ON, 4.0)],
     [bench(SIMD_ON), bench(SIMD_ON, 1.2)]),
    ("eval", "eval", [bench(EVAL)],
     [bench(dict(EVAL, BM_EvalFullRankA_TapePerInstance=4.0))]),
    ("telemetry-overhead", "telemetry-overhead",
     [bench(SPMM), bench(SPMM, 1.01)], [bench(SPMM, 1.05), bench(SPMM)]),
    *((gate, gate, [LOADGEN_SAMPLE], None)
      for gate in ("serving", "flight-dump", "two-stage", "quant-serving")),
    ("retrieval", "retrieval", [RETRIEVAL_SAMPLE], None),
    ("quant", "quant", [QUANT_SAMPLE], None),
    *((f"chaos/{s}", "chaos", [chaos_sample(s)], None)
      for s in ("corrupt-swap", "worker-stall", "overload")),
)


def walk(data, path):
    """The holder of `path`'s last part ("*" takes the first element)."""
    *parents, last = path.split(".")
    for part in parents:
        data = (data[part] if part != "*" else data[0]
                if isinstance(data, list) else next(iter(data.values())))
    return data, last


def without(data, path, *value):
    """A copy of `data` without `path`, or with `path` set to `value`."""
    data = copy.deepcopy(data)
    holder, key = walk(data, path)
    del holder[key]
    if value:
        holder[key] = value[0]
    return data


def break_only(report, target, rows):
    """Sets the target row's field so that the row fails, then moves every
    field an == row ties to it by the same amount, so no other row breaks."""
    row, _, bound = target

    def fields_of(term):  # the report fields a bound reads
        return term if isinstance(term, Sum) else (
            (term,) if type(term) is str else ())
    new = (not bound if isinstance(bound, bool) else
           ["injected violation"] if isinstance(bound, list) else
           bound + "?" if isinstance(bound, str) else
           bound + {">=": -1, ">": 0, "<=": 1, "<": 0, "==": 1}[row.op])
    holder, key = walk(report, row.value)
    old, holder[key] = holder[key], new
    links = [(r.value, fields_of(r.bound)) for r, _, _ in rows
             if r.op == "==" and r is not row and fields_of(r.bound)]
    moved = [row.value] if type(new) in (int, float) else []
    while moved:
        path = moved.pop()
        for value, bounds in list(links):
            tied = (value if path in bounds else
                    bounds[0] if path == value and len(bounds) == 1 else None)
            if tied:
                links.remove((value, bounds))
                holder, key = walk(report, tied)
                holder[key] += new - old
                moved.append(tied)


def self_test():
    results = []

    def case(name, ok):
        results.append((name, ok))

    def raises(fn, *args):
        try:
            fn(*args)
        except SchemaError:
            return True
        return False

    def verdict(gate, reports):  # the labels of the rows that fail
        return failures(evaluate(gate, SAMPLE_CI, reports)[0])

    case("speedup of 2x and 8x is 4x", speedup(
        {"a": 2, "b": 8}, {"a": 1, "b": 1}, [("a", "a"), ("b", "b")]) == 4)
    case("an empty, non-JSON file is a SchemaError", raises(load, os.devnull))
    committed = load(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  os.pardir, "BENCH_baseline.json"))["ci_gate"]
    for name, gate_name, reports, failing in SAMPLES:
        gate = GATES[gate_name]
        rows, inputs = evaluate(gate, SAMPLE_CI, reports)
        case(f"{name}: the sample passes", not failures(rows))
        case(f"{name}: BENCH_baseline.json has every floor it reads",
             not any(raises(lookup, committed, path, kind, "ci_gate")
                     for path, kind in inputs.floors))
        if failing:
            case(f"{name}: a sample below the floor fails",
                 verdict(gate, failing) == [rows[0][0].label])
        for target in rows:
            if isinstance(target[0].value, str):
                bad = copy.deepcopy(reports)
                break_only(bad[0], target, rows)
                case(f"{name}: breaking only '{target[0].label}' fails",
                     verdict(gate, bad) == [target[0].label])
        paths = [(i, spec.partition(":")[0]) for spec in gate.require
                 for i in range(len(reports))]
        for i, path in dict.fromkeys(paths + [(0, p) for p in inputs.fields]):
            for how, value in (("without", ()), ("with an object at", ({},))):
                bad = list(reports)
                bad[i] = without(reports[i], path, *value)
                case(f"{name}: report {i + 1} {how} {path} is a SchemaError",
                     raises(evaluate, gate, SAMPLE_CI, bad))
        if gate.schema:
            case(f"{name}: a wrong schema is a SchemaError",
                 raises(evaluate, gate, SAMPLE_CI,
                        [dict(reports[0], schema="mgbr-other-v1")]))
        for path, _ in dict.fromkeys(inputs.floors):
            case(f"{name}: a baseline without ci_gate.{path} is a SchemaError",
                 raises(evaluate, gate, without(SAMPLE_CI, path), reports))
    # Inputs the generated cases cannot reach.
    off, bad = bench(SIMD_ON, 4.0), bench({"BM_DenseGemm/64": "fast"})
    for gate, label, reports, ci in (
            ("simd", "no benchmarks array", [{}, off], SAMPLE_CI),
            ("simd", "a non-numeric median", [bad, off], SAMPLE_CI),
            ("simd", "no median entries", [bench({}), off], SAMPLE_CI),
            ("simd", "a gate case missing", [bench(SPMM), off], SAMPLE_CI),
            ("chaos", "an unknown schedule", [chaos_sample("smoke")],
             SAMPLE_CI),
            ("quant", "an empty ci_gate.quant", [QUANT_SAMPLE],
             dict(SAMPLE_CI, quant={})),
            *(("quant", f"committed mode {mode} without results",
               [without(QUANT_SAMPLE, f"results.modes.{mode}")], SAMPLE_CI)
              for mode in QUANT_MODES)):
        case(f"{gate}: {label} is a SchemaError",
             raises(evaluate, GATES[gate], ci, reports))
    failed = [name for name, ok in results if not ok]
    for name in failed:
        print(f"self-test FAILED: {name}")
    print(f"self-test: {len(results) - len(failed)}/{len(results)} passed")
    return 1 if failed else 0


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    name = argv[1][2:] if len(argv) > 1 else ""
    if name in GATES and len(argv) == 3 + len(GATES[name].inputs):
        return run(name, argv[2], argv[3:])
    print(__doc__ + "".join(
        f"    check_bench_gate.py --{name} BENCH_baseline.json "
        f"{' '.join(gate.inputs)}\n" for name, gate in GATES.items()))
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
