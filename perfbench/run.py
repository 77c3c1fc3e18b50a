#!/usr/bin/env python3
"""The repository benchmark: one workload of dlsm_perfbench, end to end.

Usage (from the repository root):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
      --trace <0|1>

Builds perfbench/driver.cc and the engine libraries from source into
.bench_build/ (incremental after the first run), runs the driver, prints
every metric with its unit, and ends with one JSON line:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports BENCHMARK.json's end-to-end metrics. --trace 1 reports
its per-layer metrics: counter deltas from the untraced rounds, plus
per-span self times from one further traced round, reduced here from the
driver's Chrome trace. host_ops_per_s counts ops per second of the process's
CPU time, which other load on the host disturbs less than wall time;
host.wall_ops_per_s is the wall-time figure.
"""

import argparse
import collections
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "dlsm_perfbench"
DRIVER_TIMEOUT_S = 170


with open(ROOT / "BENCHMARK.json") as f:
    DECLARED = json.load(f)
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def declared_metrics(key):
    """[(name, unit)] of BENCHMARK.json's `key` list, in report order.
    Untraced runs report "end_to_end", traced runs "per_layer"."""
    return [(m["name"], m["unit"]) for m in DECLARED[key]]


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        p.error("--seed must be >= 0 and --seconds in [1, 600]")
    return args


def build():
    """Configures and builds incrementally; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD), "--target", "dlsm_perfbench",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def span_stats(path):
    """Per span name: (count, total ns, self ns) over the trace's complete
    events. Self time is a span's duration minus the part of it its direct
    children cover; spans nest per (pid, tid) track."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    tracks = collections.defaultdict(list)
    for e in events:
        if e.get("ph") == "X":
            start = round(e["ts"] * 1000)
            tracks[(e["pid"], e["tid"])].append(
                (start, -round(e["dur"] * 1000), e["name"]))
    count = collections.Counter()
    total = collections.Counter()
    self_ns = collections.Counter()
    for spans in tracks.values():
        spans.sort()  # By start; the longer (enclosing) span first on ties.
        stack = []    # [end, name, self] of the open enclosing spans.
        for start, neg_dur, name in spans:
            end = start - neg_dur
            while stack and stack[-1][0] <= start:
                closed = stack.pop()
                self_ns[closed[1]] += max(closed[2], 0)
            if stack:
                stack[-1][2] -= min(end, stack[-1][0]) - start
            stack.append([end, name, end - start])
            count[name] += 1
            total[name] += end - start
        for closed in stack:
            self_ns[closed[1]] += max(closed[2], 0)
    return count, total, self_ns


def per(num, den, scale=1.0):
    return num / den / scale if den else 0.0


def traced_metrics(m, trace_path):
    count, total, self_ns = span_stats(trace_path)
    ops = m["traced.gets"] + m["traced.puts"] + m["traced.scans"]
    print(f"traced round: {ops} ops; per span: count, self us/op, total us/op")
    for name in sorted(count, key=lambda n: -self_ns[n]):
        print(f"  span {name:<22} {count[name]:>9} "
              f"{per(self_ns[name], ops, 1e3):>12.4f} "
              f"{per(total[name], ops, 1e3):>12.4f}")
    gets, scans = m["traced.gets"], m["traced.scans"]
    untraced = m["ops_per_s"]
    traced = m["traced.ops_per_s"]
    return {
        "db.get_self_us": per(self_ns["Get"], gets, 1e3),
        "memtable.probe_us": per(self_ns["mem_probe"], gets, 1e3),
        "table.probe_us": per(self_ns["table_probe"] + self_ns["l0_wave"] +
                              self_ns["level_wave"], gets, 1e3),
        "cache.fill_us": per(self_ns["cache_miss_fill"], gets, 1e3),
        "flush.self_ms": per(self_ns["flush"] + self_ns["flush_drain"],
                             count["flush"], 1e6),
        "flush.install_wait_ms": per(total["flush_install_wait"],
                                     count["flush"], 1e6),
        "compaction.exec_ms": per(total["exec_compaction"],
                                  count["exec_compaction"], 1e6),
        "rpc.call_us": per(self_ns["rpc_call"], count["rpc_call"], 1e3),
        "scan.prefetch_wait_us": per(total["scan_prefetch_wait"], scans, 1e3),
        "client.self_us": per(self_ns["client"], ops, 1e3),
        "trace.traced_ops_per_s": traced,
        "trace.overhead_pct": (1 - per(traced, untraced)) * 100,
        "trace.dropped_spans": m["traced.dropped_spans"],
    }


def main():
    args = parse_args()
    build()
    cmd = [str(BINARY), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    trace_path = BUILD / f"trace-{args.workload}-{args.seed}-{os.getpid()}.json"
    if args.trace:
        cmd.append(f"--trace_out={trace_path}")
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=DRIVER_TIMEOUT_S)
        if out.returncode != 0:
            sys.exit(f"perfbench: driver exited with {out.returncode}")
        record = json.loads(out.stdout.strip().splitlines()[-1])
        metrics = record["metrics"]
        if args.trace:
            metrics.update(traced_metrics(metrics, trace_path))
    finally:
        trace_path.unlink(missing_ok=True)

    wanted = declared_metrics("per_layer" if args.trace else "end_to_end")
    print(f"workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']} "
          f"attempted={record['attempted']} failed={record['failed']}")
    for name, unit in wanted:
        print(f"  {name:<30} {metrics[name]:>16.4f} {unit}")
    result = {
        "correct": record["failed"] == 0 and record["attempted"] > 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
