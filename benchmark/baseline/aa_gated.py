#!/usr/bin/env python3
"""Interleaved A/A, optionally gated: two result sets of one binary on the
same seeds.

For every (seed, workload) the two sides run back to back, alternating
which goes first. A host probe (median of five runs of a fixed arithmetic
loop, taken while nothing else runs) precedes and follows each pair; a
pair is kept only if both probes are within LIMIT of the quiet level, and
is otherwise discarded and repeated. The gate never looks at what the
benchmark measured. The traced runs that `compare` checks exact counts on
are made afterwards, ungated, with `--trace 1` into the same directories.

usage: aa_gated.py BINARY OUT_A OUT_B [FIRST_SEED [PAIRS [LIMIT]]]

LIMIT defaults to 1.10. `inf` keeps every pair, whatever the host is doing,
which is what the benchmark driver's own runs are like: `aa-compare.txt`
in this directory was taken that way (log: `aa-gate.log`).
"""
import json
import subprocess
import sys
import time

QUIET_MS = 115.0  # median of the loop on this machine when the host is quiet
LIMIT = float(sys.argv[6]) if len(sys.argv) > 6 else 1.10  # a probe above QUIET_MS * LIMIT says the host is busy
WORKLOADS = ["naive-batch", "stream-batch", "explore-session", "serve-mix"]


def spin():
    t = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x += i * i
    return (time.perf_counter() - t) * 1e3


def probe():
    return sorted(spin() for _ in range(5))[2]


def run(binary, workload, seed, out):
    p = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--trace", "0", "--out", out],
        capture_output=True,
        text=True,
    )
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.strip().splitlines()[-1])["metrics"]["op_s_p50"]["value"]


def main():
    binary, out_a, out_b = sys.argv[1:4]
    first = int(sys.argv[4]) if len(sys.argv) > 4 else 100
    pairs = int(sys.argv[5]) if len(sys.argv) > 5 else 10
    kept = discarded = waits = 0
    for i in range(pairs):
        seed = first + i
        for w in WORKLOADS:
            while True:
                pre = probe()
                if pre > QUIET_MS * LIMIT:
                    waits += 1
                    print(time.strftime("%T"), f"seed {seed} {w}: host busy before (probe {pre:.0f} ms), waiting", flush=True)
                    time.sleep(20)
                    continue
                sides = [("A", out_a), ("B", out_b)]
                if i % 2:
                    sides.reverse()
                got = {name: run(binary, w, seed, f"{out}/run-{i + 1:02d}") for name, out in sides}
                post = probe()
                ok = post <= QUIET_MS * LIMIT
                print(
                    time.strftime("%T"),
                    f"seed {seed} {w}: probe {pre:.0f} -> {post:.0f} ms, op_s_p50 A {got['A']:.4f} B {got['B']:.4f}:",
                    "kept" if ok else "DISCARDED",
                    flush=True,
                )
                if ok:
                    kept += 1
                    break
                discarded += 1
    print(f"{kept} pairs kept, {discarded} discarded, {waits} waits of 20 s")


main()
