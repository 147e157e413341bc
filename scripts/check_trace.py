#!/usr/bin/env python3
"""Validate the observability output files (CI gate).

Usage:
    scripts/check_trace.py FILE [FILE...]

Each FILE is sniffed by shape:

  - A Chrome trace ({"traceEvents": [...]}, what --trace-json writes):
    checks that the JSON parses, that every event carries the required
    keys for its phase ('X' spans need name/pid/tid/ts/dur, 'C'
    counters need name/pid/ts/args, 'M' metadata needs name/pid/args),
    and — when the producer attached AccelStats totals as otherData —
    that the per-scope "dram/..." counter samples sum bit-exactly to
    the dram_read_bytes / dram_write_bytes totals.

  - A metrics report ("schema": "flcnn-metrics-v1", what --metrics-json
    writes): checks that for every run the per-scope dram_read_bytes /
    dram_write_bytes / compute_cycles sum bit-exactly to the run's
    AccelStats totals.

  - A serving result ("schema": "flcnn-serve-v1", what serve_bench
    --json writes): checks the admission ledger (submitted = admitted
    + rejected + cancelled + shed + invalid; admitted = completed +
    expired — "shed" and "invalid" default to 0 for results predating
    SLO classes and admission shape checks), that
    every latency histogram recorded exactly one entry per completed
    request, that the per-model and per-class breakdowns (when
    present) sum back to the completed count, and that each
    percentile row is monotone (p50 <= p95 <= p99 <= max).

Exits nonzero with a per-file message on the first failure.
"""

import json
import sys


def fail(path, msg):
    sys.exit(f"{path}: {msg}")


def check_trace(path, doc):
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(path, "traceEvents missing or empty")

    required = {
        "X": ("name", "ph", "pid", "tid", "ts", "dur"),
        "C": ("name", "ph", "pid", "ts", "args"),
        "M": ("name", "ph", "pid", "args"),
    }
    dram_read = 0
    dram_write = 0
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph not in required:
            fail(path, f"event {i}: unexpected phase {ph!r}")
        for key in required[ph]:
            if key not in ev:
                fail(path, f"event {i} ({ph} {ev.get('name')!r}): "
                           f"missing key {key!r}")
        if ph == "X" and ev["dur"] < 0:
            fail(path, f"event {i}: negative duration {ev['dur']}")
        if ph == "C" and ev["name"].startswith("dram/"):
            args = ev["args"]
            if not isinstance(args.get("read_bytes"), int) or \
               not isinstance(args.get("write_bytes"), int):
                fail(path, f"event {i} ({ev['name']}): dram counter "
                           "args must be integers")
            dram_read += args["read_bytes"]
            dram_write += args["write_bytes"]

    other = doc.get("otherData", {})
    n_scopes = sum(1 for ev in events
                   if ev.get("ph") == "C" and
                   ev.get("name", "").startswith("dram/"))
    if "dram_read_bytes" in other:
        if dram_read != other["dram_read_bytes"]:
            fail(path, f"per-scope dram read counters sum to "
                       f"{dram_read}, AccelStats total is "
                       f"{other['dram_read_bytes']}")
        if dram_write != other["dram_write_bytes"]:
            fail(path, f"per-scope dram write counters sum to "
                       f"{dram_write}, AccelStats total is "
                       f"{other['dram_write_bytes']}")
        print(f"{path}: OK ({len(events)} events; {n_scopes} dram "
              f"scopes sum to {dram_read} read / {dram_write} written)")
    else:
        print(f"{path}: OK ({len(events)} events; no totals attached)")


def check_metrics(path, doc):
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        fail(path, "runs missing or empty")
    for run in runs:
        name = run.get("name", "<unnamed>")
        totals = run.get("totals")
        metrics = run.get("metrics")
        if not isinstance(totals, dict) or not isinstance(metrics, dict):
            fail(path, f"run {name!r}: totals/metrics missing")
        for field in ("dram_read_bytes", "dram_write_bytes",
                      "compute_cycles"):
            got = sum(scope[field] for scope in metrics.values()
                      if isinstance(scope.get(field), int))
            if got != totals.get(field):
                fail(path, f"run {name!r}: per-scope {field} sums to "
                           f"{got}, totals say {totals.get(field)}")
        print(f"{path}: run {name!r} OK ({len(metrics)} scopes match "
              "the AccelStats totals)")


def check_hist(path, label, h, expect_count=None):
    """One latency histogram object: count present, percentiles (when
    any sample was recorded) well-formed and monotone."""
    if not isinstance(h, dict) or \
            not isinstance(h.get("count"), int) or h["count"] < 0:
        fail(path, f"{label}: count missing or negative")
    if expect_count is not None and h["count"] != expect_count:
        fail(path, f"{label}.count {h['count']} != expected "
                   f"{expect_count} (a completion was recorded zero "
                   "or twice)")
    if h["count"] == 0:
        return
    ordered = [h.get(k) for k in ("p50", "p95", "p99", "max")]
    if any(not isinstance(v, (int, float)) or v < 0 for v in ordered):
        fail(path, f"{label}: malformed percentiles")
    if any(a > b for a, b in zip(ordered, ordered[1:])):
        fail(path, f"{label}: percentiles not monotone {ordered}")


def check_serve(path, doc):
    counts = doc.get("counts")
    lat = doc.get("latency_us")
    if not isinstance(counts, dict) or not isinstance(lat, dict):
        fail(path, "counts/latency_us missing")
    for key in ("submitted", "admitted", "rejected", "expired",
                "cancelled", "completed"):
        if not isinstance(counts.get(key), int) or counts[key] < 0:
            fail(path, f"counts.{key} missing or negative")
    # "shed" joined the schema with SLO classes and "invalid" with the
    # admission shape check; older results omit them.
    shed = counts.get("shed", 0)
    if not isinstance(shed, int) or shed < 0:
        fail(path, "counts.shed not a non-negative integer")
    invalid = counts.get("invalid", 0)
    if not isinstance(invalid, int) or invalid < 0:
        fail(path, "counts.invalid not a non-negative integer")

    if counts["submitted"] != (counts["admitted"] + counts["rejected"]
                               + counts["cancelled"] + shed + invalid):
        fail(path, f"admission ledger broken: submitted "
                   f"{counts['submitted']} != admitted "
                   f"{counts['admitted']} + rejected "
                   f"{counts['rejected']} + cancelled "
                   f"{counts['cancelled']} + shed {shed} + invalid "
                   f"{invalid}")
    if counts["admitted"] != counts["completed"] + counts["expired"]:
        fail(path, f"admitted {counts['admitted']} != completed "
                   f"{counts['completed']} + expired "
                   f"{counts['expired']}")

    for kind in ("total", "queue_wait", "compute"):
        if not isinstance(lat.get(kind), dict):
            fail(path, f"latency_us.{kind} missing")
        check_hist(path, f"latency_us.{kind}", lat[kind],
                   expect_count=counts["completed"])

    # Multi-tenant breakdowns (optional; added with --models): every
    # completion belongs to exactly one model and one SLO class. The
    # models section is an array — names may repeat (several tenants
    # serving the same network).
    models = doc.get("models")
    if isinstance(models, list) and models:
        total = 0
        for i, entry in enumerate(models):
            name = entry.get("name", f"#{i}")
            if entry.get("class") not in ("latency_critical",
                                          "best_effort"):
                fail(path, f"models[{i}] ({name}): bad class "
                           f"{entry.get('class')!r}")
            check_hist(path, f"models[{i}] ({name}).total_us",
                       entry.get("total_us"))
            total += entry["total_us"]["count"]
        if total != counts["completed"]:
            fail(path, f"per-model counts sum to {total}, completed "
                       f"is {counts['completed']}")
    classes = doc.get("classes")
    if isinstance(classes, dict) and classes:
        total = 0
        for name in ("latency_critical", "best_effort"):
            if not isinstance(classes.get(name), dict):
                fail(path, f"classes.{name} missing")
            check_hist(path, f"classes.{name}", classes[name])
            total += classes[name]["count"]
        if total != counts["completed"]:
            fail(path, f"per-class counts sum to {total}, completed "
                       f"is {counts['completed']}")

    print(f"{path}: OK ({counts['completed']} completed, {shed} shed; "
          "ledger and histogram counts consistent, percentiles "
          "monotone)")


def main(argv):
    if len(argv) < 2:
        sys.exit(__doc__)
    for path in argv[1:]:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as exc:
            fail(path, f"not readable JSON: {exc}")
        if isinstance(doc, dict) and "traceEvents" in doc:
            check_trace(path, doc)
        elif isinstance(doc, dict) and \
                doc.get("schema") == "flcnn-metrics-v1":
            check_metrics(path, doc)
        elif isinstance(doc, dict) and \
                doc.get("schema") == "flcnn-serve-v1":
            check_serve(path, doc)
        else:
            fail(path, "not a Chrome trace, flcnn-metrics-v1 report, "
                       "or flcnn-serve-v1 result")


if __name__ == "__main__":
    main(sys.argv)
