#!/usr/bin/env python3
"""Repo benchmark entry point: build the harness, run one workload, check it.

    python3 perfbench/run.py --workload cluster_flood --seed 1 --seconds 10 --trace 0

Builds perfbench/ (CMake, RelWithDebInfo, into .bench_build/ at the repo
root), runs `ddpm_perfbench` for the workload, and prints:

  * a `provenance {...}` line (git sha, compiler, build type, telemetry
    gate, core count, CPU model, seed) and a `digest <hex>` line (hash of
    the deterministic simulated outcome; printed, never gated);
  * as the last line, one JSON object with exactly the keys `correct`,
    `attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
    `end_to_end` list of BENCHMARK.json, with --trace 1 the `per_layer`
    list, each as {"value": number, "unit": string}.

Exit status: 0 when the outcome checks pass; 1 when they fail (the result
is still printed, with `failed` > 0 or `correct` false); 2 when the harness
cannot be built or run (nothing printed on stdout).

--smoke (shrunk sizes) and --expect-wrong (score against a deliberately
wrong truth) exist for perfbench/test_run.py.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "ddpm_perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once and builds the harness; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "ddpm_perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--expect-wrong", action="store_true")
    args = ap.parse_args()

    try:
        expected = expected_metrics(args.trace)
        started = time.monotonic()
        build()
        log(f"build ready in {time.monotonic() - started:.1f} s")
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        if args.expect_wrong:
            cmd.append("--expect-wrong")
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"harness exited with {done.returncode}")
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise RuntimeError("harness printed no result")
        raw = json.loads(lines[-1])
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.TimeoutExpired) as err:
        log(f"error: {err}")
        return 2

    metrics = raw["metrics"]
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        log(f"error: metrics/units differ from BENCHMARK.json: "
            f"missing {sorted(set(expected) - set(got))}, "
            f"extra {sorted(set(got) - set(expected))}, units "
            f"{sorted(k for k in got if k in expected and got[k] != expected[k])}")
        return 2

    for note in raw["notes"]:
        log(f"check failed: {note}")
    print("provenance " + json.dumps(raw["provenance"], sort_keys=True))
    print(f"digest {raw['digest']}")
    attempted = max(1, int(raw["attempted"]))
    print(f"fail_frac {int(raw['failed']) / attempted!r} "
          f"({raw['failed']} of {attempted})")
    result = {
        "correct": bool(raw["correct"]) and raw["failed"] == 0,
        "attempted": attempted,
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
