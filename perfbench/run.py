#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles the
SmoothE libraries from ../src) on first use, then runs one workload:

    python3 perfbench/run.py --workload cyclic_scc --seed 1 \
        --seconds 50 --trace 0

The program's last stdout line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `--self-test` checks the
benchmark itself on shrunk inputs. See perfbench/README.md.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "smoothe_perfbench"

WORKLOADS = {
    "cyclic_scc": "48 tensat-shaped graphs whose largest SCC has 40-48 "
                  "classes",
    "anytime_eqsat": "16 seed terms x 8 saturation epochs (node cap 400) "
                     "with incremental SmoothE re-extraction",
}

USAGE = """usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
       python3 perfbench/run.py --self-test
       python3 perfbench/run.py --help

workloads:
{workloads}

flags:
  --workload NAME  workload to run
  --seed N         workload seed; the inputs are generated from it
  --seconds S      measure timed passes for about S seconds
  --trace 0|1      0: end-to-end metrics; 1: traced run, per-layer metrics
                   (spans are written to .bench_out/)
  --self-test      check the benchmark on shrunk inputs
  --help           this text
Other flags (--pool P for P thread-pool workers, default 1; --shrink)
pass through to the program.
"""


def usage():
    rows = "\n".join("  %-14s %s" % kv for kv in WORKLOADS.items())
    return USAGE.format(workloads=rows)


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures once, then builds incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("SmoothE sources not found next to perfbench/ "
             "(expected src/CMakeLists.txt)")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", TARGET, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except FileNotFoundError:
            fail("cmake not found")
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, TARGET)


def commit():
    """The checkout's git revision, or "unknown" outside a git work tree."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True)
        if top.returncode != 0 or \
                os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except FileNotFoundError:
        return "unknown"


def flag_value(args, flag):
    for i, arg in enumerate(args[:-1]):
        if arg == flag:
            return args[i + 1]
    return None


def run(args):
    workload = flag_value(args, "--workload")
    if workload not in WORKLOADS:
        fail("--workload must be one of " + ", ".join(WORKLOADS))
    binary = build()
    extra = ["--commit", commit()]
    if flag_value(args, "--trace") == "1":
        out = os.path.join(ROOT, ".bench_out")
        os.makedirs(out, exist_ok=True)
        seed = flag_value(args, "--seed") or "1"
        extra += ["--spans-out",
                  os.path.join(out, "spans-%s-seed%s.json" % (workload, seed))]
    sys.stdout.flush()
    return subprocess.run([binary] + args + extra, cwd=ROOT).returncode


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test():
    """Runs every workload on shrunk inputs and checks the output."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    problems = []

    def check(condition, message):
        if not condition:
            problems.append(message)
        print(("ok    " if condition else "FAIL  ") + message, flush=True)

    helped = subprocess.run([binary, "--help"], capture_output=True, text=True)
    own = usage()
    for name in [w["name"] for w in spec["workloads"]]:
        check(name in helped.stdout and name in own,
              "--help lists workload " + name)
    for flag in ["--workload", "--seed", "--seconds", "--trace"]:
        check(flag in helped.stdout and flag in own, "--help lists " + flag)
    bad = subprocess.run([binary, "--workload", "cyclic_scc", "--bogus", "1"],
                         capture_output=True, text=True)
    check(bad.returncode == 2 and not bad.stdout,
          "unknown flag exits 2 without a result")

    for workload in [w["name"] for w in spec["workloads"]]:
        fingerprints = {}
        for trace in ("0", "1"):
            pools = ("1", "4") if trace == "0" else ("1",)
            for pool in pools:
                label = "%s trace %s pool %s" % (workload, trace, pool)
                done = subprocess.run(
                    [binary, "--workload", workload, "--seed", "3",
                     "--seconds", "1", "--trace", trace, "--pool", pool,
                     "--shrink"],
                    capture_output=True, text=True, cwd=ROOT)
                try:
                    result = last_json(done.stdout)
                except ValueError:
                    result = None
                check(done.returncode == 0 and isinstance(result, dict),
                      label + ": exits 0 and the last line parses")
                if not isinstance(result, dict):
                    continue
                check(set(result) == {"correct", "attempted", "failed",
                                      "metrics"} and result["correct"]
                      and result["failed"] == 0 and result["attempted"] >= 1,
                      label + ": correct, no failed calls")
                wanted = spec["per_layer" if trace == "1" else "end_to_end"]
                got = result["metrics"]
                for metric in wanted:
                    entry = got.get(metric["name"], {})
                    check(entry.get("unit") == metric["unit"] and
                          isinstance(entry.get("value"), (int, float)),
                          label + ": prints %s in %s" % (metric["name"],
                                                         metric["unit"]))
                check(len(got) == len(wanted), label + ": no extra metrics")
                match = re.search(r"result fingerprint ([0-9a-f]+)",
                                  done.stdout)
                if trace == "0" and match:
                    fingerprints[pool] = match.group(1)
        check(len(set(fingerprints.values())) == 1 and
              len(fingerprints) == 2,
              workload + ": fingerprint identical at pool sizes 1 and 4")

    print("self-test: %s" % ("PASS" if not problems else
                             "FAIL (%d problems)" % len(problems)))
    return 0 if not problems else 1


def main():
    args = sys.argv[1:]
    if not args or "--help" in args or "-h" in args:
        print(usage(), end="")
        return 0
    if args == ["--self-test"]:
        return self_test()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
