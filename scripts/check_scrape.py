#!/usr/bin/env python3
"""Scrape-reconciliation gate for the serving observability stack.

CI runs bench_loadgen a second time with the metrics exporter on
(`--metrics-port`), curls /metrics and /healthz both mid-run and after
the drain (the loadgen lingers via `--linger-s` so the exporter stays
up), and hands the scrapes plus the loadgen JSON report to this script.
The exporter is only trusted if what Prometheus would see agrees with
what the server itself counted:

  * the final /metrics scrape parses as Prometheus text 0.0.4 — every
    histogram's bucket counts are cumulative, end in an `+Inf` bucket,
    and that bucket equals `_count`;
  * every count in the loadgen report's `server` object has a
    `serve_<name>` series with the same value — the report and /metrics
    render the server's one set of counts from one field list, so after
    the drain they agree exactly — and submitted == completed +
    shed_queue_full + shed_deadline + shed_load + invalid;
  * /healthz reported `running` mid-run and `stopped` after the drain;
  * optionally, a /varz scrape's `exporter_port` equals the report's
    `server.metrics_port` — proof that the port CI actually scraped is
    the one THIS server bound (the exporter retries a taken port and
    may fall back to an ephemeral one, so the configured port is not
    evidence).

The server renders every serve_<name> series on every scrape, with
telemetry on or off, so a missing series is an error, never a zero.

Usage:
    check_scrape.py REPORT.json FINAL.prom FINAL_healthz.json \
        MID_healthz.json [VARZ.json]
    check_scrape.py --self-test
"""

import json
import sys


class ScrapeError(Exception):
    """A scrape or report does not satisfy the reconciliation checks."""


def _require(cond, message):
    if not cond:
        raise ScrapeError(message)


def parse_prometheus(text):
    """Parse Prometheus text 0.0.4 into {name: value} and {name: type}.

    Histogram series keep their full sample name (`x_bucket{le="..."}`,
    `x_sum`, `x_count`) as the key. Values are floats; `+Inf`/`-Inf`/
    `NaN` parse to the corresponding float.
    """
    values = {}
    types = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.rstrip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            _require(len(parts) == 4, f"line {lineno}: malformed TYPE line")
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        # Sample line: `name{labels} value` or `name value`. Labels
        # never contain spaces in our exporter's output.
        head, _, value = line.rpartition(" ")
        _require(head != "", f"line {lineno}: sample line without a value")
        try:
            values[head] = float(value)
        except ValueError as err:
            raise ScrapeError(f"line {lineno}: bad sample value "
                              f"{value!r}") from err
    _require(values, "scrape contains no samples")
    return values, types


def check_histograms(values, types):
    """Every histogram must have cumulative buckets ending in +Inf."""
    checked = 0
    for name, kind in types.items():
        if kind != "histogram":
            continue
        buckets = []
        for key, value in values.items():
            prefix = name + '_bucket{le="'
            if key.startswith(prefix):
                buckets.append((key[len(prefix):-2], value))
        _require(buckets, f"histogram {name} has no _bucket series")
        _require(buckets[-1][0] == "+Inf",
                 f"histogram {name} does not end in an +Inf bucket")
        counts = [count for _, count in buckets]
        _require(counts == sorted(counts),
                 f"histogram {name} buckets are not cumulative: {counts}")
        count_key = name + "_count"
        _require(count_key in values, f"histogram {name} is missing _count")
        _require(counts[-1] == values[count_key],
                 f"histogram {name}: +Inf bucket {counts[-1]} != "
                 f"_count {values[count_key]}")
        _require(name + "_sum" in values,
                 f"histogram {name} is missing _sum")
        checked += 1
    return checked


# Fields of the report's server object that are not server counts and
# so have no serve_<name> series.
REPORT_ONLY = ("flight_dumps", "metrics_port")
SUM_FIELDS = ("submitted", "completed", "shed_queue_full", "shed_deadline",
              "shed_load", "invalid")


def check_reconciliation(values, server):
    """Returns the number of counts reconciled."""
    counts = {k: v for k, v in server.items() if k not in REPORT_ONLY}
    for field, reported in counts.items():
        series = "serve_" + field
        _require(series in values,
                 f"report field {field!r} has no {series} series")
        _require(values[series] == reported,
                 f"{series} scraped {values[series]:g} != report "
                 f"{field} {reported}")
    missing = [field for field in SUM_FIELDS if field not in server]
    _require(not missing, f"report's server object is missing {missing}")
    total = sum(server[field] for field in SUM_FIELDS[1:])
    _require(server["submitted"] == total,
             f"submitted {server['submitted']} != completed + shed + "
             f"invalid {total}")
    return len(counts)


def check_varz(raw, server):
    """The /varz scrape must come from the server the report describes:
    its exporter_port is the port the exporter ACTUALLY bound (possibly
    after bind retries or an ephemeral-port fallback), and the report
    records the same number."""
    varz = json.loads(raw)
    port = varz.get("exporter_port")
    _require(isinstance(port, int) and port > 0,
             f"varz exporter_port {port!r} is not a bound port")
    reported = server.get("metrics_port")
    _require(isinstance(reported, int),
             "report's server object is missing metrics_port")
    _require(port == reported,
             f"varz exporter_port {port} != report metrics_port "
             f"{reported} — the scrape hit a different server")


def check_healthz(raw, want_status):
    healthz = json.loads(raw)
    _require(healthz.get("status") == want_status,
             f"healthz status {healthz.get('status')!r}, "
             f"wanted {want_status!r}")
    _require(isinstance(healthz.get("model_version"), int),
             "healthz is missing an integer model_version")


def run_checks(report, final_prom, final_healthz, mid_healthz, varz=None):
    _require(report.get("schema") == "mgbr-loadgen-v1",
             "report is not an mgbr-loadgen-v1 document")
    server = report.get("server")
    _require(isinstance(server, dict),
             "report has no server object (loadgen too old?)")
    values, types = parse_prometheus(final_prom)
    histograms = check_histograms(values, types)
    reconciled = check_reconciliation(values, server)
    check_healthz(mid_healthz, "running")
    check_healthz(final_healthz, "stopped")
    if varz is not None:
        check_varz(varz, server)
    shed = (server["shed_queue_full"] + server["shed_deadline"] +
            server["shed_load"])
    print(f"scrape gate: {len(values)} samples, {histograms} histograms "
          f"valid, {reconciled} serve counters reconciled, "
          f"submitted {server['submitted']} == completed "
          f"{server['completed']} + shed {shed} + "
          f"invalid {server['invalid']}"
          + ("" if varz is None else ", exporter port verified"))


SELF_TEST_SERVER = {
    "submitted": 10, "admitted": 9, "shed_queue_full": 1,
    "shed_deadline": 1, "completed": 8, "invalid": 0,
    "late_completions": 0, "batches": 2, "unique_scored": 4,
    "coalesced": 0, "cache_hits": 3, "two_stage": 0, "quant_scored": 0,
    "shed_load": 0, "worker_restarts": 0, "flight_dumps": 1,
    "metrics_port": 9109,
}

SELF_TEST_PROM = "".join(
    f"# TYPE serve_{name} counter\nserve_{name} {value}\n"
    for name, value in SELF_TEST_SERVER.items()
    if name not in REPORT_ONLY) + """\
# TYPE serve_latency_us histogram
serve_latency_us_bucket{le="100"} 3
serve_latency_us_bucket{le="1000"} 7
serve_latency_us_bucket{le="+Inf"} 8
serve_latency_us_sum 4200
serve_latency_us_count 8
"""

SELF_TEST_VARZ = '{"state":"stopped","exporter_port":9109}'


def self_test():
    report = {"schema": "mgbr-loadgen-v1", "server": dict(SELF_TEST_SERVER)}
    running = '{"status":"running","model_version":1,"swap_count":1}'
    stopped = '{"status":"stopped","model_version":1,"swap_count":1}'

    def fails(mutate):
        bad_report = json.loads(json.dumps(report))
        prom = [SELF_TEST_PROM]
        healthz = [running, stopped]
        mutate(bad_report, prom, healthz)
        try:
            run_checks(bad_report, prom[0], healthz[1], healthz[0])
        except ScrapeError:
            return True
        return False

    def _varz_ok(varz):
        try:
            run_checks(report, SELF_TEST_PROM, stopped, running, varz)
        except ScrapeError:
            return False
        return True

    checks = {
        "accepts a consistent scrape": lambda: (
            run_checks(report, SELF_TEST_PROM, stopped, running) or True),
        "rejects a counter mismatch": lambda: fails(
            lambda r, p, h: r["server"].update(batches=3)),
        "rejects a broken sum invariant": lambda: fails(
            lambda r, p, h: (r["server"].update(submitted=11),
                             p.__setitem__(0, p[0].replace(
                                 "serve_submitted 10",
                                 "serve_submitted 11")))),
        "rejects non-cumulative buckets": lambda: fails(
            lambda r, p, h: p.__setitem__(0, p[0].replace(
                'le="1000"} 7', 'le="1000"} 2'))),
        "rejects +Inf != _count": lambda: fails(
            lambda r, p, h: p.__setitem__(0, p[0].replace(
                "serve_latency_us_count 8", "serve_latency_us_count 9"))),
        "rejects a missing +Inf bucket": lambda: fails(
            lambda r, p, h: p.__setitem__(0, p[0].replace(
                'serve_latency_us_bucket{le="+Inf"} 8\n', ""))),
        "rejects a draining final healthz": lambda: fails(
            lambda r, p, h: h.__setitem__(
                1, running.replace("running", "draining"))),
        "rejects a missing series": lambda: fails(
            lambda r, p, h: p.__setitem__(0, p[0].replace(
                "serve_late_completions 0\n", ""))),
        "rejects a report field with no series": lambda: fails(
            lambda r, p, h: r["server"].update(new_count=0)),
        "rejects a report without shed_load": lambda: fails(
            lambda r, p, h: r["server"].pop("shed_load")),
        "rejects a shed_load mismatch": lambda: fails(
            lambda r, p, h: r["server"].update(shed_load=1)),
        "accepts a matching varz port": lambda: (
            run_checks(report, SELF_TEST_PROM, stopped, running,
                       SELF_TEST_VARZ) or True),
        "rejects a varz port mismatch": lambda: not _varz_ok(
            SELF_TEST_VARZ.replace("9109", "9110")),
        "rejects an unbound varz port": lambda: not _varz_ok(
            SELF_TEST_VARZ.replace("9109", "0")),
    }
    failed = [name for name, check in checks.items() if not check()]
    for name in failed:
        print(f"self-test FAILED: {name}", file=sys.stderr)
    print(f"self-test: {len(checks) - len(failed)}/{len(checks)} passed")
    return 1 if failed else 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) not in (5, 6):
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1], encoding="utf-8") as fh:
        report = json.load(fh)
    with open(argv[2], encoding="utf-8") as fh:
        final_prom = fh.read()
    with open(argv[3], encoding="utf-8") as fh:
        final_healthz = fh.read()
    with open(argv[4], encoding="utf-8") as fh:
        mid_healthz = fh.read()
    varz = None
    if len(argv) == 6:
        with open(argv[5], encoding="utf-8") as fh:
            varz = fh.read()
    try:
        run_checks(report, final_prom, final_healthz, mid_healthz, varz)
    except ScrapeError as err:
        print(f"scrape gate FAILED: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
