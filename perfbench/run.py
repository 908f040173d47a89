#!/usr/bin/env python3
"""Builds wydb and the benchmark binary from this checkout, runs one
workload, and prints its result.

    python3 perfbench/run.py --workload <analyze-exact|serve-mix|live-certified> \
        --seed <n> --seconds <s> --trace <0|1> [--smoke] [--inject-wrong-verdict]
    python3 perfbench/run.py --selftest

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Everything it builds and writes
stays under .bench_build/ in the checkout. See perfbench/README.md.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "perfbench_bin")
TOOLS = os.path.join(CMAKE_DIR, "wydb")
WORKLOADS = ("analyze-exact", "serve-mix", "live-certified")
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def check_checkout():
    for need in ("CMakeLists.txt", "src", os.path.join("tools", "wydb_analyze.cc"),
                 os.path.join("tools", "wydb_serve.cc")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is not a wydb checkout (no %s)" % (ROOT, need), 2)


def build():
    """Configures (Release) and builds the three targets; both steps are
    quick when nothing changed."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = [["cmake", "-S", HERE, "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", CMAKE_DIR, "-j", str(max(1, nproc())), "--target",
                  "perfbench_bin", "wydb_analyze", "wydb_serve"]]
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (%s)" % " ".join(step[:2]))
    build_type = cache_value("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        fail("refusing to report from a %r build; numbers come from Release only" % build_type, 4)


def cache_value(key):
    with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def nproc():
    return len(os.sched_getaffinity(0))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none (not a git checkout)"


def cpu_ticks():
    """The host's (steal, total) CPU ticks so far, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks)


def steal_share(before, after):
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def host_stamp():
    return "host: nproc=%d cpu=%r compiler=%r build_type=%s commit=%s" % (
        nproc(), cpu_model(), compiler(), cache_value("CMAKE_BUILD_TYPE"), commit())


def compiler():
    out = subprocess.run([cache_value("CMAKE_CXX_COMPILER"), "--version"],
                         capture_output=True, text=True)
    return (out.stdout.splitlines() or ["unknown"])[0]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# The per-layer metrics of layers a workload never calls (prefixes of
# BENCHMARK.json names). They read 0 on that workload; every other metric
# BENCHMARK.json lists must come from the benchmark binary.
NOT_CALLED = {
    "analyze-exact": ("core.", "serve.", "runtime."),
    "serve-mix": ("analysis.deadlock_", "analysis.thm4_", "runtime."),
    # Theorem 4 gives up on the live system's cycle budget: no cycle count.
    "live-certified": ("core.", "serve.", "analysis.deadlock_", "analysis.safety_",
                       "analysis.bytes_", "analysis.thm4_cycles"),
}


def complete_metrics(workload, trace, measured):
    """Checks the measured metrics against BENCHMARK.json and returns them
    in its order, with 0 for the layers the workload never calls."""
    out = {}
    for m in spec()["per_layer" if trace else "end_to_end"]:
        name, unit = m["name"], m["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                fail("%s is in %s, BENCHMARK.json says %s" % (name, measured[name]["unit"], unit))
            out[name] = measured.pop(name)
        elif trace and name.startswith(NOT_CALLED[workload]):
            out[name] = {"value": 0, "unit": unit}
        else:
            fail("%s measured no %s" % (workload, name))
    if measured:
        fail("metrics not in BENCHMARK.json: %s" % sorted(measured))
    return out


def run_binary(args):
    """Runs the benchmark binary in its own process group and kills
    whatever is left of the group afterwards, so no child outlives the run."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("the benchmark binary did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out, err


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for the self-tests")
    parser.add_argument("--inject-wrong-verdict", action="store_true",
                        help="flip one expected verdict; the run must then report a failure")
    parser.add_argument("--selftest", action="store_true", help="check the span arithmetic")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    check_checkout()
    build()
    if args.selftest:
        sys.exit(subprocess.call([BINARY, "selftest"]))

    work = os.path.join(BUILD, "run", args.workload)
    os.makedirs(work, exist_ok=True)
    cmd = [BINARY, args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tools", TOOLS, "--work", work]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject_wrong_verdict:
        cmd.append("--inject-wrong-verdict")
    steal_before = cpu_ticks()
    code, out, err = run_binary(cmd)
    steal = steal_share(steal_before, cpu_ticks())
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        sys.stderr.write(out + err)
        fail("the benchmark binary exited with %d" % code)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line")
    result["metrics"] = complete_metrics(args.workload, args.trace == 1, result["metrics"])
    sys.stderr.write(err)
    print(host_stamp())
    print("host: %.1f%% of CPU time stolen by the hypervisor during the run" % (100 * steal))
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
