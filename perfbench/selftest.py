#!/usr/bin/env python3
"""Benchmark self-test: seeds control the inputs, and tracing changes nothing.

    python3 perfbench/selftest.py

For every workload, two untraced runs with the same seed must print the same
modeled metrics, wire hash, content hash and fingerprint, and a traced run
with that seed must print the same wire hash and fingerprint. A web_lan run
with another seed must change the content and wire hashes. Exits non-zero
on the first check that fails.
"""

import json
import re
import sys

import run

MODELED = ("page_ms_p50", "page_ms_tail", "kb_per_op", "quality")
HASHES = re.compile(r"wire_hash (\w+)\s+content_hash (\w+)\s+fingerprint (\w+)")
SECONDS = 1  # every run still makes one full episode per sub-seed


def run_once(workload, seed, trace):
    code, out = run.run_bench(workload, seed, SECONDS, trace)
    lines = out.strip().splitlines()
    match = HASHES.search(out)
    if code != 0 or not lines or match is None:
        sys.stdout.write(out)
        raise SystemExit(f"FAIL {workload} seed {seed} trace {trace}: run failed")
    result = json.loads(lines[-1])
    wire, content, fingerprint = match.groups()
    return {"wire": wire, "content": content, "fingerprint": fingerprint,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        raise SystemExit(1)


def main():
    if not run.build():
        return 1
    seed = run.DEFAULT_SEED
    for workload in run.WORKLOADS:
        a = run_once(workload, seed, 0)
        b = run_once(workload, seed, 0)
        check(all(a["metrics"][m] == b["metrics"][m] for m in MODELED),
              f"{workload}: same seed, same modeled metrics")
        check(a["wire"] == b["wire"] and a["content"] == b["content"] and
              a["fingerprint"] == b["fingerprint"],
              f"{workload}: same seed, same wire hash, content hash and fingerprint")
        t = run_once(workload, seed, 1)
        check(t["wire"] == a["wire"] and t["fingerprint"] == a["fingerprint"],
              f"{workload}: traced run has the untraced wire hash and fingerprint")
        if workload == "web_lan":
            c = run_once(workload, seed + 1, 0)
            check(c["content"] != a["content"] and c["wire"] != a["wire"],
                  f"{workload}: another seed changes the content and wire hashes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
