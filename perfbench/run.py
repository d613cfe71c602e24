#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload fi_plain --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds the lore_perfbench harness (and the
LORE libraries it links) from source under .bench_build/, runs one workload
for the given seconds, checks its outputs, and prints the result as the last
line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run. The line before it carries the host fingerprint, thread counts,
sample counts, fingerprints and checks. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats  # noqa: E402

WORKLOADS = ("fi_plain", "fi_resilient", "crosslayer")
# Which stored fingerprint table a workload's records are pinned against:
# fi_resilient's checkpointed records must equal fi_plain's.
EXPECTED_TABLE = {"fi_plain": "fi", "fi_resilient": "fi", "crosslayer": "crosslayer"}
HARNESS_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir, env):
    """Configure once, then let the build tool decide what is stale."""
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed (is this the root of a LORE checkout?)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", "lore_perfbench"]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "lore_perfbench")


def run_harness(exe, args, workdir, env):
    cmd = [exe, args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    # Own process group: on a timeout the harness and its fabric workers go
    # down together.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("harness timed out")
    if proc.returncode != 0:
        fail("harness exited with %d" % proc.returncode)
    lines = out.decode().strip().splitlines()
    if not lines:
        fail("harness printed nothing")
    return json.loads(lines[-1])


def expected_check(raw):
    """Compare the run's fingerprint with the value stored for this seed."""
    with open(os.path.join(HERE, "expected.json")) as f:
        table = json.load(f).get(EXPECTED_TABLE[raw["workload"]], {})
    want = table.get(raw["seed"])
    got = raw["summary"]["fingerprint"]
    if want is None:
        return {"name": "expected.fingerprint", "stored": False, "ok": True, "got": got}
    return {"name": "expected.fingerprint", "stored": True, "ok": want == got,
            "got": got, "want": want}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(root, "perfbench")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # compiler temporaries stay in the checkout
    exe = build(build_dir, env)

    workdir = os.path.join(build_dir, "runs", "%s-%d-%d" % (args.workload, args.seed,
                                                            os.getpid()))
    os.makedirs(workdir)
    try:
        raw = run_harness(exe, args, workdir, env)
        events = []
        if args.trace:
            with open(raw["trace_file"]) as f:
                events = json.load(f)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    expected = expected_check(raw)
    correct = bool(raw["correct"]) and expected["ok"]
    if args.trace:
        metrics = benchstats.per_layer(raw, events, raw.get("trace_export_s", 0.0))
    else:
        metrics = benchstats.end_to_end(raw)
    attempted, failed = benchstats.attempted_failed(raw)

    detail = {
        "workload": raw["workload"],
        "seed": raw["seed"],
        "host": raw["host"],
        "summary": raw["summary"],
        "rounds": len(raw["rounds"]),
        "best_of": raw["best_of"],
        "traced_rounds": len(benchstats.traced(raw)),
        "setup_samples": len(raw["setup_s"]),
        # Counts of the last round, ml.prune.* included, on every run.
        "last_round": {k: v for k, v in raw["rounds"][-1].items()
                       if k not in ("parts", "scenario_ms")},
        "checks": raw["checks"] + [expected],
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
