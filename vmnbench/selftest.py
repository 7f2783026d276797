#!/usr/bin/env python3
"""Self-test of the vmn benchmark at tiny sizes.

Run from the repository root:

    python3 vmnbench/selftest.py

Builds the driver (as run.py does), then for every workload in
BENCHMARK.json checks that:
  - an untraced run emits exactly the end-to-end metrics, each with its unit,
    and a traced run exactly the per-layer ones;
  - a run whose first expected verdict is flipped reports correct=false and
    exits 1;
  - two traced runs with the same seed repeat every deterministic count
    exactly.
Exits 1 on the first failed check.
"""
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step lives there)

# Per-layer metrics that count work rather than time it: a fixed seed and
# operation count must reproduce them exactly.
DETERMINISTIC = [
    "slice.solver_jobs", "slice.dedup_rate", "encode.axioms", "smt.checks",
    "smt.unknown", "verify.witnesses", "pool.cold_binds",
    "pool.iso_replay_share", "cache.hit_rate",
    "serve.solver_calls_per_reload", "dataplane.transfer_builds",
    "unknown_share", "trace.replayed_ops",
]
OPS = 8


def fail(msg):
    print("selftest FAILED: " + msg)
    sys.exit(1)


def invoke(binary, work, workload, trace, seed=7, extra=()):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--tiny",
           "--ops", str(OPS), "--work-dir", work] + list(extra)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("%s printed no result (exit %d): %s"
             % (" ".join(cmd), proc.returncode, proc.stderr[-400:]))
    return proc.returncode, json.loads(lines[-1])


def check_metrics(result, specs, what):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in specs}
    if got != want:
        fail("%s: metrics %s, expected %s" % (what, got, want))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail("%s: %s is not a number" % (what, name))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = run.build()
    with tempfile.TemporaryDirectory(dir=run.build_dir()) as work:
        for w in (x["name"] for x in bench["workloads"]):
            code, plain = invoke(binary, work, w, 0)
            if code != 0 or not plain["correct"] or plain["failed"] != 0:
                fail("%s: untraced run not correct: %s" % (w, plain))
            if plain["attempted"] != OPS:
                fail("%s: attempted %d, expected %d"
                     % (w, plain["attempted"], OPS))
            check_metrics(plain, bench["end_to_end"], w + " --trace 0")

            code, traced = invoke(binary, work, w, 1)
            if code != 0 or not traced["correct"]:
                fail("%s: traced run not correct: %s" % (w, traced))
            check_metrics(traced, bench["per_layer"], w + " --trace 1")

            code, again = invoke(binary, work, w, 1)
            for name in DETERMINISTIC:
                a = traced["metrics"][name]["value"]
                b = again["metrics"][name]["value"]
                if a != b:
                    fail("%s: %s differs between runs of one seed: %r vs %r"
                         % (w, name, a, b))

            code, flipped = invoke(binary, work, w, 0,
                                   extra=["--flip-expectation"])
            if code != 1 or flipped["correct"]:
                fail("%s: a flipped expectation did not fail the run "
                     "(exit %d, %s)" % (w, code, flipped))
            print("selftest %s: ok" % w)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
