#!/usr/bin/env python3
"""Build and run the CED-flow benchmark.

    python3 cedbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 cedbench/run.py --self-test

The benchmark is compiled from the library sources next to this directory
into .bench_build/ at the repository root (Release, configured on first use,
rebuilt incrementally afterwards); build output goes to stderr. The benchmark
binary's standard output is passed through unchanged, so its last line is
the result JSON. Without the library sources next to it the build fails and
this script exits non-zero without printing a result.

--self-test runs every workload of BENCHMARK.json in the reduced --smoke
mode, traced and untraced, checks that every declared metric is reported
with its declared unit and that nothing fails, and checks that a broken
check-symbol generator (one output inverted) is counted as failed.
"""
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cedbench")
BINARY = os.path.join(BUILD_DIR, "cedbench")
# A run must end within 180 s; stop the child well before that.
RUN_TIMEOUT_S = 170


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                return False
    return os.path.exists(BINARY)


def run_binary(args, capture):
    """Runs the benchmark binary; returns (exit code, stdout or None)."""
    proc = subprocess.Popen([BINARY] + args, cwd=ROOT,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("cedbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, None
    return proc.returncode, out.decode() if capture else None


def trace_file_args(args):
    """Adds a --trace-file under .bench_build for traced runs."""
    if "--trace" not in args or "--trace-file" in args:
        return args
    i = args.index("--trace")
    if i + 1 >= len(args) or args[i + 1] != "1":
        return args
    workload = args[args.index("--workload") + 1] if "--workload" in args else "run"
    seed = args[args.index("--seed") + 1] if "--seed" in args else "0"
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, "%s-seed%s.json" % (workload, seed))
    return args + ["--trace-file", path]


def result_of(stdout):
    lines = [l for l in (stdout or "").splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys %s" % sorted(result))
    return result


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def check(label, args, declared, expect_failure=False):
        code, out = run_binary(args, capture=True)
        try:
            if code != 0:
                raise ValueError("exit code %d" % code)
            r = result_of(out)
        except ValueError as e:
            problems.append("%s: %s" % (label, e))
            return
        if expect_failure:
            if r["failed"] < 1 or r["correct"]:
                problems.append("%s: broken generator not counted as failed" % label)
            return
        if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
            problems.append("%s: correct=%s failed=%s" % (label, r["correct"], r["failed"]))
        got = r["metrics"]
        for m in declared:
            if m["name"] not in got:
                problems.append("%s: missing %s" % (label, m["name"]))
            elif got[m["name"]]["unit"] != m["unit"]:
                problems.append("%s: %s unit %s != %s" % (
                    label, m["name"], got[m["name"]]["unit"], m["unit"]))
        extra = set(got) - {m["name"] for m in declared}
        if extra:
            problems.append("%s: undeclared metrics %s" % (label, sorted(extra)))

    for w in spec["workloads"]:
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            label = "%s trace=%s" % (w["name"], trace)
            print("self-test:", label, file=sys.stderr)
            check(label, ["--workload", w["name"], "--seed", "1", "--seconds", "0",
                          "--trace", trace, "--smoke"], declared)
    print("self-test: broken check-symbol generator", file=sys.stderr)
    check("flow_cold --break-checkgen",
          ["--workload", "flow_cold", "--seed", "1", "--seconds", "0", "--trace", "0",
           "--smoke", "--break-checkgen"], [], expect_failure=True)

    for p in problems:
        print("self-test FAILED:", p)
    print("self-test:", "ok" if not problems else "%d problem(s)" % len(problems))
    return 0 if not problems else 1


def main(argv):
    if not build():
        print("cedbench: build failed", file=sys.stderr)
        return 1
    if argv == ["--self-test"]:
        return self_test()
    code, _ = run_binary(trace_file_args(argv), capture=False)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
