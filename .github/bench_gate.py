#!/usr/bin/env python3
"""Benchmark-regression gate for the CI pipeline.

Reads two `go test -bench` outputs (merge-base and PR head, each run
with -count=6), compares per-benchmark median ns/op, writes the
comparison as a JSON artifact, and exits non-zero when any benchmark
present on both sides slows down by more than the threshold. Every
benchmark the workflow ran gates: its `-bench` regex is the one list of
gated benchmarks. Benchmarks present on only one side (added or
removed by the PR) are reported but never gate.

Usage: bench_gate.py BASE.txt HEAD.txt OUT.json [--threshold 0.15]
"""

import json
import re
import statistics
import sys

# "BenchmarkFoo/sub-8   	     123	   9876 ns/op	..." — the -N
# GOMAXPROCS suffix is stripped so the name is stable across runners.
LINE = re.compile(r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+)\s+ns/op")


def parse(path):
    runs = {}
    with open(path) as f:
        for line in f:
            m = LINE.match(line)
            if m:
                runs.setdefault(m.group(1), []).append(float(m.group(2)))
    return {name: statistics.median(vals) for name, vals in runs.items()}


def main():
    args, threshold = [], 0.15
    argv = sys.argv[1:]
    i = 0
    while i < len(argv):
        a = argv[i]
        if a.startswith("--threshold"):
            if "=" in a:
                threshold = float(a.split("=", 1)[1])
            else:
                i += 1
                threshold = float(argv[i])
        else:
            args.append(a)
        i += 1
    base_path, head_path, out_path = args
    base, head = parse(base_path), parse(head_path)

    rows, failures = [], []
    for name in sorted(set(base) | set(head)):
        b, h = base.get(name), head.get(name)
        delta = (h - b) / b if b and h else None
        gated = delta is not None
        regressed = gated and delta > threshold
        rows.append(
            {
                "benchmark": name,
                "base_ns_op": b,
                "head_ns_op": h,
                "delta": delta,
                "gated": gated,
                "regressed": regressed,
            }
        )
        if regressed:
            failures.append(f"{name}: {b:.0f} -> {h:.0f} ns/op ({delta:+.1%})")

    with open(out_path, "w") as f:
        json.dump(
            {"threshold": threshold, "results": rows, "failures": failures},
            f,
            indent=2,
        )

    for r in rows:
        d = "n/a (one side only)" if r["delta"] is None else f"{r['delta']:+.1%}"
        flag = " <-- REGRESSION" if r["regressed"] else ""
        print(f"{r['benchmark']}: {d}{flag}")
    if failures:
        print(f"\nFAIL: {len(failures)} gated benchmark(s) regressed more than {threshold:.0%}:")
        for f_ in failures:
            print(" ", f_)
        sys.exit(1)
    print(f"\nOK: no gated benchmark regressed more than {threshold:.0%}")


if __name__ == "__main__":
    main()
