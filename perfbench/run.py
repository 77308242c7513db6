#!/usr/bin/env python3
"""Build the repository benchmark from source and run one workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first form builds perfbench/circusbench.exe with dune and runs it;
the last line of its standard output is the JSON result.  The second
runs every workload of BENCHMARK.json at tiny sizes and checks that each
named metric is emitted, and that a corrupted report and a non-echo
reply are counted as failed.  See perfbench/README.md.
"""

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "circusbench.exe")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 170


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def call(cmd, timeout, **kwargs):
    """Run [cmd] to completion; kill it on timeout or when this script is
    terminated, and wait for it either way.  Returns (exit code, stdout)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, text=True, **kwargs)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s timed out after %d s" % (os.path.basename(cmd[0]), timeout))
    return proc.returncode, out


def build():
    for need in ("dune-project", os.path.join("lib", "scenario", "scenario.ml")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("missing %s: run from the root of a circus source tree" % need)
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")
    cmd = [dune, "build", "--root", ROOT, "--profile", "release", "perfbench/circusbench.exe"]
    code, _ = call(cmd, BUILD_TIMEOUT, stdout=sys.stderr)
    if code != 0 or not os.path.exists(EXE):
        fail("build failed")


def commit():
    """The git commit, or a digest of the sources where there is no .git."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(base, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def run(args, timeout=RUN_TIMEOUT):
    """Run the benchmark binary; returns (exit code, stdout)."""
    return call([EXE] + args + ["--commit", commit()], timeout, stdout=subprocess.PIPE)


def result_of(out):
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []

    def check(label, args, expect_correct):
        start = time.time()
        code, out = run(args)
        res = result_of(out)
        if code != 0 or res is None:
            problems.append("%s: exit %d, no result" % (label, code))
            return
        if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
            problems.append("%s: result keys %s" % (label, sorted(res)))
            return
        trace = int(args[args.index("--trace") + 1])
        names = {m["name"]: m["unit"] for m in wanted[trace]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if got != names:
            problems.append("%s: metrics differ from BENCHMARK.json: %s"
                            % (label, sorted(set(got.items()) ^ set(names.items()))))
        if res["attempted"] < 1:
            problems.append("%s: attempted %d" % (label, res["attempted"]))
        if expect_correct and not (res["correct"] and res["failed"] == 0):
            problems.append("%s: correct=%s failed=%d" % (label, res["correct"], res["failed"]))
        if not expect_correct and (res["correct"] or res["failed"] == 0):
            problems.append("%s: the planted defect was not counted (correct=%s failed=%d)"
                            % (label, res["correct"], res["failed"]))
        print("self-test %-40s %5.1fs  correct=%s attempted=%d failed=%d"
              % (label, time.time() - start, res["correct"], res["attempted"], res["failed"]))

    # The rig is runnable by name though not gated; it emits the same metrics.
    for name in [w["name"] for w in spec["workloads"]] + ["paper_rpc_n3"]:
        for trace in (0, 1):
            check("%s trace=%d" % (name, trace),
                  ["--workload", name, "--seed", "7", "--seconds", "1",
                   "--trace", str(trace), "--tiny"], True)
    check("steady_poisson corrupt-report",
          ["--workload", "steady_poisson", "--seed", "7", "--seconds", "1", "--trace", "0",
           "--tiny", "--inject", "corrupt-report"], False)
    check("paper_rpc_n3 bad-echo",
          ["--workload", "paper_rpc_n3", "--seed", "7", "--seconds", "1", "--trace", "0",
           "--tiny", "--inject", "bad-echo"], False)
    for p in problems:
        print("self-test FAILED: " + p)
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    build()
    if sys.argv[1:] == ["--self-test"]:
        sys.exit(self_test())
    code, out = run(sys.argv[1:])
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
