#!/usr/bin/env python3
"""DPZ benchmark entry point.

Builds the library and the benchmark from this checkout, runs one
workload, and prints every metric with its unit. The last line of
standard output is the result as one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

  python3 perfbench/run.py --workload snapshot --seed 1 --seconds 48 --trace 0
  python3 perfbench/run.py --workload campaign --seed 7 --seconds 48 --trace 1
  python3 perfbench/run.py --selftest        # checks the benchmark's arithmetic
  python3 perfbench/run.py --check-manifest  # validates BENCHMARK.json

--trace 0 measures the end-to-end metrics with all tracing off. --trace 1
replays each op layer by layer at 1 and 2 threads, writes the spans as
Chrome trace files and takes per-layer self times from `dpz trace-report`.
Exit status: 0 when every output check passed, 1 when a check failed,
2 when the benchmark could not be built or run.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not be built or run."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures and builds the benchmark; returns the build directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "dpz.h")):
        raise BenchError(f"library sources not found under {ROOT}/src")
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest", "dpz_tool"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))
    return bdir


def binaries(bdir):
    return {
        "perfbench": os.path.join(bdir, "perfbench"),
        "selftest": os.path.join(bdir, "perfbench_selftest"),
        "dpz": os.path.join(bdir, "dpz_src", "tools", "dpz"),
    }


def load_manifest():
    with open(MANIFEST, encoding="utf-8") as f:
        return json.load(f)


def check_manifest(m):
    """Returns the list of problems with BENCHMARK.json (empty when valid)."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(m) != keys:
        problems.append(f"keys {sorted(m)} != {sorted(keys)}")
        return problems
    if not isinstance(m["run_seconds"], int) or not 1 <= m["run_seconds"] <= 60:
        problems.append("run_seconds must be a whole number in [1, 60]")
    if not 2 <= len(m["workloads"]) <= 8:
        problems.append("2 to 8 workloads")
    if not 1 <= len(m["end_to_end"]) <= 16:
        problems.append("1 to 16 end_to_end metrics")
    if not 1 <= len(m["per_layer"]) <= 128:
        problems.append("1 to 128 per_layer metrics")
    seen = set()
    for w in m["workloads"]:
        if set(w) != {"name", "why"}:
            problems.append(f"workload keys {sorted(w)}")
        if len(w.get("why", "")) > 200 or "\n" in w.get("why", ""):
            problems.append(f"workload {w.get('name')}: why too long")
    for kind, entries, want in (
            ("workload", m["workloads"], None),
            ("end_to_end", m["end_to_end"], {"name", "unit", "better", "bound"}),
            ("per_layer", m["per_layer"], {"name", "unit", "better"})):
        for e in entries:
            name = e.get("name", "")
            if not NAME_RE.match(name):
                problems.append(f"{kind} name {name!r} is not [A-Za-z0-9_.-]+")
            if name in seen:
                problems.append(f"name {name!r} used twice")
            seen.add(name)
            if want is None:
                continue
            if set(e) != want:
                problems.append(f"{kind} {name}: keys {sorted(e)}")
            if not UNIT_RE.match(e.get("unit", "")):
                problems.append(f"{kind} {name}: bad unit {e.get('unit')!r}")
            if e.get("better") not in ("higher", "lower"):
                problems.append(f"{kind} {name}: better must be higher/lower")
            if kind == "end_to_end" and not 0 < e.get("bound", 0) <= 0.25:
                problems.append(f"{name}: bound must be in (0, 0.25]")
    setup = [e for e in m["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    return problems


def parse_trace_report(text):
    """Parses the stage table of `dpz trace-report` into
    {span: (count, wall_ms, self_ms)}."""
    table = {}
    in_table = False
    for line in text.splitlines():
        if line.startswith("stage"):
            in_table = True
            continue
        if not in_table:
            continue
        parts = line.split()
        if not line.startswith("  ") or len(parts) != 4:
            break
        table[parts[0]] = (int(parts[1]), float(parts[2]), float(parts[3]))
    return table


def layer_value(kind, amount, t1, t2):
    """One per-layer metric from the trace-report rows of its span at
    1 thread (t1) and 2 threads (t2)."""
    count, wall, self_ms = t2
    if kind == "self":
        return self_ms / count
    if kind == "wall":
        return wall / count
    if kind == "rate":
        return amount / (self_ms / 1e3)
    if kind == "speedup":
        return t1[2] / self_ms
    raise BenchError(f"unknown trace request kind {kind!r}")


def trace_metrics(dpz, prefix, requests):
    tables = {}
    for threads in (1, 2):
        path = f"{prefix}_{threads}t.json"
        proc = subprocess.run([dpz, "trace-report", path],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise BenchError(f"dpz trace-report {path} failed: {proc.stderr}")
        tables[threads] = parse_trace_report(proc.stdout)
        if threads == 2:
            print(proc.stdout, end="")
    out = {}
    for r in requests:
        span = r["span"]
        if span not in tables[1] or span not in tables[2]:
            raise BenchError(f"trace has no {span!r} spans")
        out[r["metric"]] = {
            "value": layer_value(r["kind"], r["amount"], tables[1][span],
                                 tables[2][span]),
            "unit": r["unit"]}
    return out


def run(args):
    manifest = load_manifest()
    problems = check_manifest(manifest)
    if problems:
        raise BenchError("BENCHMARK.json: " + "; ".join(problems))
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; one of {names}")
    bins = binaries(build())

    base = os.path.dirname(build_dir())
    workdir = os.path.join(base, "work", f"{args.workload}-{os.getpid()}")
    trace_prefix = os.path.join(base, "trace", f"{args.workload}-s{args.seed}")
    os.makedirs(os.path.dirname(trace_prefix), exist_ok=True)
    out_path = os.path.join(base, f"result-{os.getpid()}.json")
    cmd = [bins["perfbench"], "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir,
           "--out", out_path, "--trace-prefix", trace_prefix]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    print(proc.stdout, end="", flush=True)
    if not os.path.isfile(out_path):
        raise BenchError(f"perfbench exited {proc.returncode} without a result")
    with open(out_path, encoding="utf-8") as f:
        result = json.load(f)
    os.remove(out_path)

    metrics = result["metrics"]
    if args.trace:
        metrics.update(trace_metrics(bins["dpz"], trace_prefix,
                                     result["trace_requests"]))
        wanted = [e["name"] for e in manifest["per_layer"]]
    else:
        wanted = [e["name"] for e in manifest["end_to_end"]]
    missing = [n for n in wanted if n not in metrics]
    if missing:
        raise BenchError(f"metrics missing from the result: {missing}")
    for name in wanted:
        if metrics[name]["value"] is None:
            raise BenchError(f"metric {name} is not a finite number")
    final = {"correct": bool(result["correct"]) and proc.returncode == 0,
             "attempted": result["attempted"],
             "failed": result["failed"],
             "metrics": {n: metrics[n] for n in wanted}}
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


SAMPLE_REPORT = """stage                  count        wall ms        self ms
  core.basis_train         3      1055.598         0.048
  linalg.inverse_project     3        70.162        70.162
  linalg.tridiagonalize     3       376.171       376.171
pool: no queue-wait attribution in the trace
"""


def selftest():
    bins = binaries(build())
    failures = []
    table = parse_trace_report(SAMPLE_REPORT)
    if table != {"core.basis_train": (3, 1055.598, 0.048),
                 "linalg.inverse_project": (3, 70.162, 70.162),
                 "linalg.tridiagonalize": (3, 376.171, 376.171)}:
        failures.append(f"parse_trace_report: {table}")
    t1, t2 = (2, 30.0, 20.0), (2, 16.0, 10.0)
    for kind, amount, want in (("self", 0, 5.0), ("wall", 0, 8.0),
                               ("rate", 4.0, 400.0), ("speedup", 0, 2.0)):
        got = layer_value(kind, amount, t1, t2)
        if abs(got - want) > 1e-12:
            failures.append(f"layer_value({kind}) = {got}, want {want}")
    problems = check_manifest(load_manifest())
    if problems:
        failures.append("BENCHMARK.json: " + "; ".join(problems))
    for f in failures:
        print(f"FAIL {f}")
    rc = subprocess.run([bins["selftest"]], check=False).returncode
    ok = rc == 0 and not failures
    print("self-test: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=48.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--check-manifest", action="store_true")
    args = p.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.check_manifest:
            problems = check_manifest(load_manifest())
            for problem in problems:
                print(problem)
            return 1 if problems else 0
        if not args.workload:
            p.error("--workload is required")
        return run(args)
    except (BenchError, OSError, subprocess.SubprocessError,
            ValueError, KeyError) as e:
        log(str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
