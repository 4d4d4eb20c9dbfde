#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload, or all of them.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The build goes to
$CARGO_TARGET_DIR, or to .bench_build when that is unset; its log goes to
standard error. Each workload runs in a process of its own, so that its
peak memory is its own. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; with
--workload all, the metrics of every workload are prefixed by its name.
The exit code is nonzero when the build fails or any output check fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["zipf_campaign", "expiry_storm", "bailiwick_paper"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(ROOT, target, "release", "perfbench")


def run(binary, workload, args):
    """Runs one workload, echoes its log, and returns its exit code and
    its JSON result (None when it printed none)."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    for line in lines:
        print(line)
    return done.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        code, result = run(binary, workload, args)
        status = status or code
        if result is None:
            sys.exit(f"perfbench: {workload} printed no result (exit code {code})")
        if len(workloads) == 1:
            print(json.dumps(result))
            break
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    else:
        print(json.dumps(total))
    sys.exit(status)


if __name__ == "__main__":
    main()
