#!/usr/bin/env python3
"""The repository benchmark: three workloads with per-layer attribution.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout. It builds `perfbench/perfbench.cpp`
against the library sources (CMake, Release) into `$CARGO_TARGET_DIR` or
`.bench_build`, runs one workload and prints a report followed, as the last
line of standard output, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, measured untraced. With
`--trace 1` the run measures once untraced and once traced, folds the Chrome
trace (the library's own spans plus the driver's spans around every public
call) into per-layer self times, prints them as a report that sums back to the
op wall time, and reports the per-layer metrics. `perfbench/predictions.json`
records which end-to-end metric each layer should move, and where each layer
is predicted to be idle; the traced run checks the idle predictions.

The workload seed only shuffles the order of the 38 in-tree programs in each
sweep. The run fails (exit 1, `correct: false`) when any op fails.
"""

import argparse
import bisect
import fnmatch
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile", "exec-lowered", "exec-highlevel")
PASSES = ("host-raising", "canonicalize", "host-device-prop", "cse", "func",
          "licm", "detect-reduction", "loop-internalization", "dce",
          "sycl-dae", "convert-sycl-to-scf", "annotate-inbounds")

END_TO_END = [
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"),
    ("op_ms_p50", "ms"), ("op_ms_p90", "ms"),
    ("cold_ms_p50", "ms"), ("cold_ms_p90", "ms"),
    ("warm_ms_p50", "ms"), ("warm_ms_p90", "ms"),
]

PER_LAYER = (
    [("frontend.build_ms", "ms"), ("ir.context_ms", "ms"),
     ("ir.parse_ms", "ms"), ("ir.verify_ms", "ms"),
     ("ir.source_ops", "count"), ("ir.optimized_ops", "count"),
     ("pass.pipeline_ms", "ms"), ("pass.pipeline_self_ms", "ms")]
    + [("pass.%s_ms" % p, "ms") for p in PASSES]
    + [("core.compile_self_ms", "ms"), ("core.compile_miss_ms", "ms"),
       ("core.compile_disk_hit_ms", "ms"),
       ("core.compile_memory_hit_ms", "ms"), ("core.service_ms", "ms"),
       ("core.misses", "count"), ("core.disk_hits", "count"),
       ("core.memory_hits", "count"), ("core.disk_invalid", "count"),
       ("core.in_flight_waits", "count"), ("core.hit_ratio", "ratio"),
       ("core.disk_bytes", "B"),
       ("exec.bc_translate_ms", "ms"), ("exec.bc_insts", "count"),
       ("exec.vm_launch_ms", "ms"), ("exec.interp_launch_ms", "ms"),
       ("exec.steps", "count"), ("exec.ns_per_step_bytecode", "ns"),
       ("exec.ns_per_step_interpreter", "ns"),
       ("exec.bytecode_share", "ratio"), ("exec.sim_time", "units"),
       ("runtime.run_program_ms", "ms"), ("runtime.task_run_ms", "ms"),
       ("runtime.queue_wait_ms", "ms"), ("runtime.host_ms", "ms"),
       ("runtime.workers_busy", "ratio"), ("runtime.launches", "count"),
       ("unattributed_ms", "ms"), ("trace_overhead", "ratio"),
       ("sim_speedup_geomean", "ratio"), ("fail_ratio", "ratio")])


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def percentile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_quiet(cmd, **kwargs):
    """Runs cmd with its output on stderr, so stdout stays the report."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT, **kwargs).returncode


def build(build_dir):
    for required in ("CMakeLists.txt", "src/CMakeLists.txt",
                     "bench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, required)):
            die("no library sources: %s is missing" % required)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            die("cmake configure failed")
    if run_quiet(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs]) != 0:
        die("build failed")
    return os.path.join(build_dir, "perfbench")


def provenance(raw):
    """Where the numbers came from: commit, build, host."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    commit, dirty = None, None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True)
        if head.returncode == 0:
            commit = head.stdout.strip()
            dirty = bool(status.stdout.strip())
    info = {"commit": commit, "dirty": dirty,
            "source_sha256": digest.hexdigest()[:16]}
    info.update(raw["provenance"])
    return info


#===------------------------------------------------------------------------===#
# Trace folding
#===------------------------------------------------------------------------===#

class Span:
    __slots__ = ("name", "cat", "tid", "ts", "end", "dur", "args", "parent",
                 "child", "op")

    def __init__(self, ev):
        self.name, self.cat, self.tid = ev["name"], ev["cat"], ev["tid"]
        self.ts, self.dur = ev["ts"], ev["dur"]
        self.end = self.ts + self.dur
        self.args = ev.get("args", {})
        self.parent, self.child, self.op = None, 0.0, None

    @property
    def self_time(self):
        return self.dur - self.child


def load_trace(path):
    """Spans with same-thread parents, child time and enclosing bench.op."""
    with open(path) as fh:
        events = json.load(fh)["traceEvents"]
    spans, flows = [], []
    for ev in events:
        if ev["ph"] == "X":
            spans.append(Span(ev))
        elif ev["ph"] in ("s", "f"):
            flows.append(ev)
    by_tid = {}
    for s in spans:
        by_tid.setdefault(s.tid, []).append(s)
    for lst in by_tid.values():
        lst.sort(key=lambda s: (s.ts, -s.dur))
        stack = []
        for s in lst:
            while stack and s.ts >= stack[-1].end:
                stack.pop()
            if stack:
                s.parent = stack[-1]
                s.parent.child += s.dur
                s.op = s.parent.op
            if s.name == "bench.op":
                s.op = s
            stack.append(s)
    return spans, flows


def union_length(intervals):
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def fold(spans, flows):
    """Per-layer totals in ms over the traced window."""
    us = 1000.0
    ops = [s for s in spans if s.name == "bench.op"]
    t = {"ops": len(ops), "op_ms": sum(s.dur for s in ops) / us,
         "self": {}, "pass": {}, "outcome": {}}

    for s in spans:
        if s.op is not None and s is not s.op:
            key = s.name if s.cat != "pass" else "pass"
            t["self"][key] = t["self"].get(key, 0.0) + s.self_time / us
            if s.cat == "pass":
                t["pass"][s.name] = t["pass"].get(s.name, 0.0) + \
                    s.self_time / us
        if s.name == "core.compile":
            o = t["outcome"].setdefault(s.args.get("outcome"), [0, 0.0])
            o[0] += 1
            o[1] += s.dur / us
    t["pipeline_ms"] = sum(s.dur for s in spans
                           if s.name == "pass.pipeline") / us

    tasks = [s for s in spans if s.name in ("task.run", "task.host")]
    t["task_busy_ms"] = sum(s.dur for s in tasks) / us
    t["task_self_ms"] = sum(s.self_time for s in tasks) / us
    for tier in ("bytecode", "interpreter"):
        t["launch_" + tier + "_ms"] = sum(
            s.dur for s in spans
            if s.name == "vm.launch" and s.args.get("tier") == tier) / us

    # Runtime: host time of each runProgram call is its wall time minus the
    # part of it during which at least one of its commands ran on a worker.
    runs = sorted((s for s in spans if s.name == "runtime.run_program"),
                  key=lambda s: s.ts)
    run_starts = [s.ts for s in runs]
    kernel_tasks = [s for s in tasks if s.name == "task.run"]
    covered = {}
    for task in kernel_tasks:
        i = bisect.bisect_right(run_starts, task.ts) - 1
        if i >= 0 and task.ts < runs[i].end:
            covered.setdefault(i, []).append(
                (task.ts, min(task.end, runs[i].end)))
    t["run_program_ms"] = sum(s.dur for s in runs) / us
    t["run_covered_ms"] = sum(union_length(v) for v in covered.values()) / us
    t["host_ms"] = t["run_program_ms"] - t["run_covered_ms"]

    # Queue wait: a command is ready when its runProgram call started (it
    # was submitted then or later) and every predecessor's span ended; the
    # flow arrows name the predecessors.
    by_task_id = {s.args["task"]: s for s in kernel_tasks if "task" in s.args}
    tasks_by_tid = {}
    for s in sorted(kernel_tasks, key=lambda s: s.ts):
        tasks_by_tid.setdefault(s.tid, []).append(s)
    starts_by_tid = {tid: [s.ts for s in lst]
                     for tid, lst in tasks_by_tid.items()}
    ready = {}
    for ev in flows:
        if ev["ph"] != "f" or ev["id"] not in by_task_id:
            continue
        i = bisect.bisect_right(starts_by_tid.get(ev["tid"], []),
                                ev["ts"]) - 1
        if i >= 0:
            consumer = tasks_by_tid[ev["tid"]][i]
            ready[id(consumer)] = max(ready.get(id(consumer), 0.0),
                                      by_task_id[ev["id"]].end)
    wait = 0.0
    for task in kernel_tasks:
        i = bisect.bisect_right(run_starts, task.ts) - 1
        start = run_starts[i] if i >= 0 else task.ts
        wait += max(0.0, task.ts - max(start, ready.get(id(task), 0.0)))
    t["queue_wait_ms"] = wait / us
    return t


#===------------------------------------------------------------------------===#
# Metrics
#===------------------------------------------------------------------------===#

def end_to_end(workload, raw):
    w = raw["untraced"]
    cold = w["cold_ms"] if workload == "compile" else raw["setup_cold_ms"]
    series = {"op_ms": w["op_ms"], "cold_ms": cold, "warm_ms": w["warm_ms"]}
    m = {"setup_s": statistics.median(raw["setup_s"]),
         "ops_per_s": w["ops"] / w["seconds"],
         "peak_rss_mb": raw["peak_rss_kb"] / 1024.0}
    for name, values in series.items():
        m[name + "_p50"] = percentile(values, 0.5)
        m[name + "_p90"] = percentile(values, 0.9)
    return m, {name: len(values) for name, values in series.items()}


def per_layer(raw, t, attempted, failed):
    w = raw["traced"]
    n = max(1, t["ops"])
    sweeps = max(1, w["sweeps"])
    svc = w["service"]
    counts = raw["counts"]
    layers = raw["setup_layers"]
    self_ms = t["self"]
    m = {}

    def med(values):
        return statistics.median(values) if values else 0.0

    def outcome_mean(outcome):
        count, total = t["outcome"].get(outcome, (0, 0.0))
        return total / count if count else 0.0

    m["frontend.build_ms"] = med(layers["frontend.build_ms"])
    for layer in ("ir.context", "ir.parse", "ir.verify"):
        m[layer + "_ms"] = self_ms.get(layer, 0.0) / n
    m["ir.source_ops"] = counts["ir.source_ops"]
    m["ir.optimized_ops"] = counts["ir.optimized_ops"]
    m["pass.pipeline_ms"] = t["pipeline_ms"] / n
    m["pass.pipeline_self_ms"] = self_ms.get("pass.pipeline", 0.0) / n
    for p in PASSES:
        m["pass.%s_ms" % p] = t["pass"].get(p, 0.0) / n
    m["core.compile_self_ms"] = self_ms.get("core.compile", 0.0) / n
    m["core.compile_miss_ms"] = outcome_mean("miss")
    m["core.compile_disk_hit_ms"] = outcome_mean("disk-hit")
    m["core.compile_memory_hit_ms"] = outcome_mean("memory-hit")
    m["core.service_ms"] = self_ms.get("compile.request", 0.0) / n
    for key in ("misses", "disk_hits", "memory_hits", "disk_invalid",
                "in_flight_waits"):
        m["core." + key] = svc[key] / sweeps
    requests = (svc["misses"] + svc["disk_hits"] + svc["memory_hits"]
                + svc["rematerialized"])
    m["core.hit_ratio"] = 1.0 - svc["misses"] / requests if requests else 0.0
    m["core.disk_bytes"] = counts["core.disk_bytes"]
    m["exec.bc_translate_ms"] = med(layers["exec.bc_translate_ms"])
    m["exec.bc_insts"] = counts["exec.bc_insts"]
    m["exec.vm_launch_ms"] = t["launch_bytecode_ms"] / n
    m["exec.interp_launch_ms"] = t["launch_interpreter_ms"] / n
    m["exec.steps"] = counts["exec.steps"]
    m["exec.ns_per_step_bytecode"] = (
        t["launch_bytecode_ms"] * 1e6 / w["steps_bytecode"]
        if w["steps_bytecode"] else 0.0)
    m["exec.ns_per_step_interpreter"] = (
        t["launch_interpreter_ms"] * 1e6 / w["steps_interpreter"]
        if w["steps_interpreter"] else 0.0)
    launches = w["launches_bytecode"] + w["launches_interpreter"]
    m["exec.bytecode_share"] = (w["launches_bytecode"] / launches
                                if launches else 0.0)
    m["exec.sim_time"] = counts["exec.sim_time"]
    m["runtime.run_program_ms"] = t["run_program_ms"] / n
    m["runtime.task_run_ms"] = t["task_self_ms"] / n
    m["runtime.queue_wait_ms"] = t["queue_wait_ms"] / n
    m["runtime.host_ms"] = t["host_ms"] / n
    m["runtime.workers_busy"] = (t["task_busy_ms"]
                                 / (raw["provenance"]["workers"]
                                    * w["seconds"] * 1000.0))
    m["runtime.launches"] = counts["runtime.launches"]
    m["unattributed_ms"] = t["unattributed_ms"] / n
    m["trace_overhead"] = ((w["ops"] / w["seconds"])
                           / (raw["untraced"]["ops"]
                              / raw["untraced"]["seconds"]))
    sims = [d / s for _, d, s in raw["sim"]]
    m["sim_speedup_geomean"] = geomean(sims) if sims else 0.0
    m["fail_ratio"] = failed / attempted
    return m


# Report labels of the spans whose self time is a layer of its own.
SPAN_LAYERS = {
    "compile.request": ("core.service", "(self: cache lookup, store, load)"),
    "core.compile": ("core.compile_self", "(self: source print, executable)"),
    "pass.pipeline": ("pass.pipeline_self", "(self: verifier, bookkeeping)"),
}


def attribute(t):
    """The op wall time split into layer self times (SCIP-style rows).

    Returns rows of (label, ms, note) and stores the remainder as
    t["unattributed_ms"]. Every span under a bench.op on the op's thread
    counts once, by self time; runtime.run_program has no same-thread
    children, so its whole duration is its self time. Worker-thread time is
    listed as included in runtime.run_program.
    """
    rows, attributed = [], 0.0
    for name, ms in sorted(t["self"].items(), key=lambda kv: -kv[1]):
        if name == "pass":
            continue
        label, note = SPAN_LAYERS.get(name, (name, ""))
        rows.append((label, ms, note))
        attributed += ms
    for name, ms in sorted(t["pass"].items(), key=lambda kv: -kv[1]):
        rows.append(("pass." + name, ms, "(self)"))
        attributed += ms
    t["unattributed_ms"] = t["op_ms"] - attributed
    return rows


def print_layer_report(workload, t, rows, m, raw):
    n = max(1, t["ops"])
    w = raw["traced"]
    print("Layer report (%s, traced, %d ops in %d sweeps; ms per op)"
          % (workload, t["ops"], w["sweeps"]))
    print("  %-34s: %10.4f" % ("Op wall time", t["op_ms"] / n))
    for label, ms, note in rows:
        print("    %-32s: %10.4f (included in op wall time) %s"
              % (label, ms / n, note))
        if label == "runtime.run_program":
            print("      %-30s: %10.4f (included in runtime.run_program)"
                  % ("runtime.host", t["host_ms"] / n))
            print("      %-30s: %10.4f (included in runtime.run_program)"
                  % ("commands running", t["run_covered_ms"] / n))
    print("    %-32s: %10.4f" % ("unattributed", t["unattributed_ms"] / n))
    print("  %-34s: %10.4f (summed over %d workers)"
          % ("Worker busy time", t["task_busy_ms"] / n,
             raw["provenance"]["workers"]))
    print("    %-32s: %10.4f (included in worker busy time)"
          % ("exec.vm_launch (bytecode)", m["exec.vm_launch_ms"]))
    print("    %-32s: %10.4f (included in worker busy time)"
          % ("exec.interp_launch", m["exec.interp_launch_ms"]))
    print("    %-32s: %10.4f (included in worker busy time)"
          % ("runtime.task_run (self)", m["runtime.task_run_ms"]))
    for outcome, (count, total) in sorted(t["outcome"].items()):
        print("  %-34s: %10.4f (%d requests)"
              % ("core.compile " + str(outcome), total / count, count))
    print("  %-34s: %10.4f ms" % ("Setup time (median)",
                                  statistics.median(raw["setup_s"]) * 1e3))
    for name, values in raw["setup_layers"].items():
        if values:
            print("    %-32s: %10.4f ms (included in setup time)"
                  % (name, statistics.median(values)))


def check_idle(workload, m):
    with open(os.path.join(HERE, "predictions.json")) as fh:
        idle = json.load(fh)["idle"].get(workload, {})
    broken = []
    for pattern, bound in idle.items():
        for name in sorted(k for k in m if fnmatch.fnmatchcase(k, pattern)):
            value = m[name]
            if "max" in bound and value > bound["max"]:
                broken.append("%s = %g > %g" % (name, value, bound["max"]))
            if "min" in bound and value < bound["min"]:
                broken.append("%s = %g < %g" % (name, value, bound["min"]))
    return broken


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    work = os.path.join(build_dir, "work-%s-%d" % (args.workload,
                                                   os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        out = os.path.join(work, "result.json")
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--work-dir", work, "--out", out]
        if args.trace:
            cmd += ["--trace-file", os.path.join(work, "trace.json")]
        if run_quiet(cmd, timeout=170) != 0:
            die("perfbench exited with an error")
        with open(out) as fh:
            raw = json.load(fh)
        folded = None
        if args.trace:
            folded = fold(*load_trace(os.path.join(work, "trace.json")))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = raw["failed"]
    attempted = raw["untraced"]["ops"] + failed
    if args.trace:
        attempted += raw["traced"]["ops"]
    correct = failed == 0

    print("perfbench %s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("provenance " + json.dumps(provenance(raw), sort_keys=True))
    for message in raw["failures"]:
        print("FAILED: " + message)

    e2e, samples = end_to_end(args.workload, raw)
    w = raw["untraced"]
    print("untraced: %d ops in %d sweeps, %.3f s; samples: %s"
          % (w["ops"], w["sweeps"], w["seconds"],
             ", ".join("%s=%d" % kv for kv in samples.items())))
    if raw["sim"]:
        print("%-28s %14s %14s %9s" % ("program", "DPC++", "SYCL-MLIR",
                                        "speedup"))
        for name, dpcpp, syclmlir in raw["sim"]:
            print("%-28s %14.1f %14.1f %8.2fx"
                  % (name, dpcpp, syclmlir, dpcpp / syclmlir))
        print("%-28s %38.4fx" % ("geo.-mean",
                                 geomean([d / s for _, d, s in raw["sim"]])))
    print("fail_ratio %.6f (%d of %d ops)" % (failed / attempted, failed,
                                               attempted))

    units = dict(END_TO_END)
    if args.trace:
        rows = attribute(folded)
        layer = per_layer(raw, folded, attempted, failed)
        print_layer_report(args.workload, folded, rows, layer, raw)
        if folded["unattributed_ms"] < 0:
            print("FAILED: unattributed time is negative: a layer was "
                  "counted twice")
            correct = False
        for broken in check_idle(args.workload, layer):
            print("FAILED: idle prediction broken: " + broken)
            correct = False
        metrics, units = layer, dict(PER_LAYER)
    else:
        metrics = e2e
    for name, value in metrics.items():
        print("%-34s %16.6f %s" % (name, value, units[name]))

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in (PER_LAYER if args.trace
                                       else END_TO_END)}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
