#!/usr/bin/env python3
"""merge_bench_json.py — merge google-benchmark JSON files into one.

The repo records its perf trajectory in a single baseline (BENCH_solver.json)
but measures it with more than one binary (bench_micro_solver,
bench_serve).  This script concatenates the `benchmarks` arrays of several
google-benchmark JSON outputs, keeping the `context` block of the first
file, and fails loudly on duplicate benchmark names — a duplicate means two
binaries define the same benchmark and the baseline would be ambiguous.

With --replace, a later file's row instead replaces the earlier row of the
same name (in place), and new names are appended.  That re-records only
the rows a change moves:

  build/bench_serve --benchmark_filter='BM_Envelope' \
      --benchmark_out=rows.json --benchmark_out_format=json
  scripts/merge_bench_json.py --replace BENCH_solver.json \
      BENCH_solver.json rows.json

Usage:
  scripts/merge_bench_json.py [--replace] OUT.json IN1.json IN2.json [...]
"""

import json
import sys


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"merge_bench_json: cannot read '{path}': {e}")
    if not isinstance(data, dict) or not isinstance(data.get("benchmarks"), list):
        sys.exit(f"merge_bench_json: '{path}' is not google-benchmark JSON")
    return data


def main(argv):
    replace = "--replace" in argv[1:2]
    if replace:
        argv = argv[:1] + argv[2:]
    if len(argv) < 3:
        sys.exit("usage: merge_bench_json.py [--replace] OUT.json IN1.json "
                 "[IN2.json ...]")
    out_path, in_paths = argv[1], argv[2:]

    merged = load(in_paths[0])
    rows = merged["benchmarks"]
    seen = {b.get("name"): i for i, b in enumerate(rows)}
    for path in in_paths[1:]:
        for bench in load(path)["benchmarks"]:
            name = bench.get("name")
            if name in seen and replace:
                rows[seen[name]] = bench
                continue
            if name in seen:
                sys.exit(f"merge_bench_json: duplicate benchmark '{name}' "
                         f"from '{path}'")
            seen[name] = len(rows)
            rows.append(bench)

    with open(out_path, "w") as f:
        json.dump(merged, f, indent=2)
        f.write("\n")
    print(f"merged {len(in_paths)} files, {len(seen)} benchmarks -> {out_path}")


if __name__ == "__main__":
    main(sys.argv)
