#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload, check it.

Run from the root of a checkout:

  python3 perfbench/run.py --workload cluster-uds --seed 1 --seconds 10 --trace 0
      One measured run. The last line of stdout is one JSON object with the
      keys correct, attempted, failed and metrics (end-to-end metrics with
      --trace 0, per-layer metrics with --trace 1).

  python3 perfbench/run.py --steady 10 [--workload W ...] [--sets 2]
      Steadiness mode: runs each workload on seeds 1..K and prints the median,
      quartiles, quartile spread and coefficient of variation of every
      end-to-end metric, naming each metric whose spread exceeds its bound in
      BENCHMARK.json. --sets 2 repeats the K runs and compares the medians.

  python3 perfbench/run.py --smoke
      The benchmark's own smoke test: the check self-test (doctored results
      must be rejected), then every workload at tiny size, traced and not.

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
configured Release. Scratch files (sockets, node state, span files) go to
.../perfbench/work.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cluster-uds", "sim-mixed")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    """Configure (once) and build the perfbench binary; False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", "perfbench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr.fileno(), stderr=sys.stderr.fileno(),
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as exc:
            log("perfbench: build step failed:", " ".join(cmd), exc)
            return False
        if done.returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return True


def source_id():
    """The git commit when there is one, plus a digest of the sources built."""
    commit = "none"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "git:%s src-sha1:%s" % (commit, digest.hexdigest()[:16])


def parse_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def run_binary(bdir, workload, seed, seconds, trace, tiny=False, echo=True, keep_log=None):
    """One perfbench invocation. Returns (exit code, parsed result or None,
    signal the first attempt died on or None).

    `echo` copies the run's report lines to stdout; `keep_log` names a file
    that receives them instead."""
    binary = os.path.join(bdir, "perfbench")
    work = os.path.relpath(os.path.join(bdir, "work"), os.getcwd())
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", work]
    if tiny:
        cmd.append("--tiny")
    env = dict(os.environ, PERFBENCH_COMMIT=source_id())
    deadline = time.monotonic() + RUN_TIMEOUT_S
    crashed = None
    for attempt in (1, 2):
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
            return 1, None, crashed
        # A run killed by a signal may have hit the socket transport's
        # teardown race (see perfbench/README.md). It is run once more, and
        # the crash is printed before the result and returned, so that the
        # steadiness and smoke modes count it as a problem.
        if proc.returncode >= 0 or attempt == 2:
            break
        crashed = -proc.returncode
        log("perfbench: %s died on signal %d; running it again" % (workload, crashed))
    lines = out.splitlines()
    if crashed is not None:
        lines.insert(0, "retried: the first attempt died on signal %d" % crashed)
    if keep_log:
        with open(keep_log, "w") as handle:
            handle.write("\n".join(lines) + "\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    result = parse_result(lines[-1]) if lines else None
    if result is None:
        log("perfbench: no result line from", " ".join(cmd))
        return proc.returncode or 1, None, crashed
    return proc.returncode, result, crashed


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    mean = statistics.fmean(values)
    cv = statistics.stdev(values) / mean if len(values) > 1 and mean else 0.0
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "cv": cv}


def steady(args, bdir):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or list(WORKLOADS)
    seconds = args.seconds or spec["run_seconds"]
    report = {}
    problems = []
    logs = os.path.join(bdir, "steady-logs")
    os.makedirs(logs, exist_ok=True)
    for workload in workloads:
        medians_by_set = []
        for set_index in range(args.sets):
            values = {name: [] for name in bounds}
            for k in range(args.steady):
                seed = k + 1
                log_path = os.path.join(logs, "%s-set%d-seed%d.log" % (workload, set_index + 1, seed))
                code, result, crashed = run_binary(bdir, workload, seed, seconds, 0,
                                                   echo=False, keep_log=log_path)
                if crashed is not None:
                    problems.append("%s seed %d: first attempt died on signal %d" % (
                        workload, seed, crashed))
                if code != 0 or result is None or not result["correct"]:
                    problems.append("%s seed %d: run failed (exit %s)" % (workload, seed, code))
                    continue
                if result["failed"] != 0:
                    problems.append("%s seed %d: %d failed ops" % (workload, seed, result["failed"]))
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                log("%s set %d seed %d: %s" % (workload, set_index + 1, seed, " ".join(
                    "%s=%.6g" % (n, v[-1]) for n, v in values.items() if v)))
            medians = {}
            for name, vals in values.items():
                if len(vals) < 2:
                    continue
                s = summarize(vals)
                medians[name] = s["median"]
                over = s["spread"] > bounds[name]
                print("%-14s set %d %-12s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%% "
                      "cv %6.2f%% bound %4.1f%%%s" % (
                          workload, set_index + 1, name, s["median"], s["q1"], s["q3"],
                          100 * s["spread"], 100 * s["cv"], 100 * bounds[name],
                          "  SPREAD OVER BOUND" if over else ""))
                if over:
                    problems.append("%s %s spread %.2f%% > bound %.1f%%" % (
                        workload, name, 100 * s["spread"], 100 * bounds[name]))
                report.setdefault(workload, {}).setdefault(name, []).append(
                    dict(s, values=vals))
            medians_by_set.append(medians)
        for later in medians_by_set[1:]:
            for name, first in medians_by_set[0].items():
                if name not in later:
                    continue
                better = next(m["better"] for m in spec["end_to_end"] if m["name"] == name)
                worse = (first - later[name]) / first if better == "higher" else \
                    (later[name] - first) / first
                print("%-14s %-12s median shift %+6.2f%% (worse by at most %4.1f%% allowed)" % (
                    workload, name, 100 * worse, 100 * bounds[name]))
                if worse > bounds[name]:
                    problems.append("%s %s second median worse by %.2f%%" % (
                        workload, name, 100 * worse))
    out = os.path.join(bdir, "steady.json")
    with open(out, "w") as handle:
        json.dump(report, handle, indent=1)
    print("steadiness report written to", out, "- per-run output in", logs)
    for p in problems:
        print("NOT STEADY:", p)
    return 0 if not problems else 1


def smoke(bdir):
    spec = load_spec()
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    failures = []
    done = subprocess.run([os.path.join(bdir, "perfbench"), "--selftest"])
    if done.returncode != 0:
        failures.append("check self-test")
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, crashed = run_binary(bdir, workload, 1, 1, trace, tiny=True,
                                               echo=False)
            what = "%s tiny trace=%d" % (workload, trace)
            if crashed is not None:
                failures.append(what + ": first attempt died on signal %d" % crashed)
            if code != 0 or result is None or not result["correct"] or result["failed"]:
                failures.append(what + ": run failed")
                continue
            if set(result["metrics"]) != names[trace]:
                failures.append(what + ": metric names differ from BENCHMARK.json: %s" % sorted(
                    set(result["metrics"]) ^ names[trace]))
                continue
            print("smoke %s: ok (%d ops)" % (what, result["attempted"]))
    for f in failures:
        print("SMOKE FAILED:", f)
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--steady", type=int, metavar="K")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    bdir = build_dir()
    if not build(bdir):
        return 1
    if args.smoke:
        return smoke(bdir)
    if args.steady:
        return steady(args, bdir)
    if not args.workload or len(args.workload) != 1 or args.seed is None or \
            args.seconds is None or args.trace is None:
        parser.error("a measured run needs --workload, --seed, --seconds and --trace")
    code, result, _ = run_binary(bdir, args.workload[0], args.seed, args.seconds, args.trace)
    if result is None:
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
