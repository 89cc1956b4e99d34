#!/usr/bin/env python3
"""Benchmark-regression gate for the CI pipeline.

Reads two `go test -bench -benchmem` outputs (merge-base and PR head,
each run with -count=6), compares per-benchmark median ns/op and
allocs/op, writes the comparison as a JSON artifact, and exits non-zero
when any benchmark present on both sides slows down by more than the
threshold, or allocates (median allocs/op above 0) where the merge-base
allocated nothing: a read path pinned at zero allocations cannot regress
quietly inside the time threshold. Every benchmark the workflow ran
gates: its `-bench` regex is the one list of gated benchmarks.
Benchmarks present on only one side (added or removed by the PR) are
reported but never gate.

Usage: bench_gate.py BASE.txt HEAD.txt OUT.json [--threshold 0.15]
"""

import json
import re
import statistics
import sys

# "BenchmarkFoo/sub-8   	     123	   9876 ns/op	..." — the -N
# GOMAXPROCS suffix is stripped so the name is stable across runners.
LINE = re.compile(r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+)\s+ns/op")
ALLOCS = re.compile(r"\s([\d.]+)\s+allocs/op")


def parse(path):
    """Median ns/op and median allocs/op (None without -benchmem) per benchmark."""
    runs, allocs = {}, {}
    with open(path) as f:
        for line in f:
            m = LINE.match(line)
            if m:
                runs.setdefault(m.group(1), []).append(float(m.group(2)))
                a = ALLOCS.search(line)
                if a:
                    allocs.setdefault(m.group(1), []).append(float(a.group(1)))
    return {
        name: (statistics.median(vals), statistics.median(allocs[name]) if name in allocs else None)
        for name, vals in runs.items()
    }


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
        b, ba = base.get(name, (None, None))
        h, ha = head.get(name, (None, None))
        delta = (h - b) / b if b and h else None
        gated = delta is not None
        slower = gated and delta > threshold
        allocating = gated and ba == 0 and ha is not None and ha > 0
        rows.append(
            {
                "benchmark": name,
                "base_ns_op": b,
                "head_ns_op": h,
                "delta": delta,
                "base_allocs_op": ba,
                "head_allocs_op": ha,
                "gated": gated,
                "regressed": slower or allocating,
            }
        )
        if slower:
            failures.append(f"{name}: {b:.0f} -> {h:.0f} ns/op ({delta:+.1%})")
        if allocating:
            failures.append(f"{name}: 0 -> {ha:g} allocs/op")

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
        print(f"\nFAIL: {len(failures)} regression(s): slower by more than {threshold:.0%}, or allocating where the base did not:")
        for f_ in failures:
            print(" ", f_)
        sys.exit(1)
    print(f"\nOK: no gated benchmark regressed more than {threshold:.0%} or started allocating")


if __name__ == "__main__":
    main()
