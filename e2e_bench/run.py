#!/usr/bin/env python3
"""End-to-end benchmark entry point: builds e2e_bench from source, runs one
workload, and passes its report through.  The last line of standard output
is the JSON result.  Run from the repository root:

    python3 e2e_bench/run.py --workload steady-queries --seed 1 --seconds 20 --trace 0
    python3 e2e_bench/run.py --workload all --seed 1 --seconds 20

`--workload all` runs every workload and ends with the twelve headline
figures of README.md by name; build output goes to standard error.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ["paper-grid", "steady-queries", "steady-full", "steady-wire", "whatif-queue"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# The twelve headline figures, each printed by its workload as a '#' line:
# (name, unit, workload; None = every workload, report the largest).
HEADLINE = [
    ("setup_s", "s", None),
    ("peak_rss_mb", "MB", None),
    ("error_rate", "ratio", None),
    ("grid_wall_s", "s", "paper-grid"),
    ("grid_cpu_s", "s", "paper-grid"),
    ("steady_p50_us", "us", "steady-queries"),
    ("steady_qps", "1/s", "steady-queries"),
    ("full_steady_p50_ms", "ms", "steady-full"),
    ("wire_steady_p50_us", "us", "steady-wire"),
    ("wire_steady_qps", "1/s", "steady-wire"),
    ("whatif_burst_sessions_per_s", "1/s", "whatif-queue"),
    ("whatif_paced_p50_ms", "ms", "whatif-queue"),
]


def build():
    """Configure once, then build incrementally; output to stderr."""
    def step(cmd):
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)

    generated = [os.path.join(BUILD_DIR, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    step(["cmake", "--build", BUILD_DIR, "--target", "e2e_bench",
          "-j", str(os.cpu_count() or 2)])
    return os.path.join(BUILD_DIR, "e2e_bench")


def run_one(binary, workload, args, extra):
    """Run one workload; returns (stdout lines, parsed result) or exits."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", TRACE_DIR] + extra
    os.makedirs(TRACE_DIR, exist_ok=True)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write("".join(line + "\n" for line in lines))
        sys.exit(f"e2e_bench: {workload} exited with code {proc.returncode}")
    return lines, json.loads(lines[-1])


def notes(lines):
    """The report's '# name value unit' lines as {name: value}."""
    out = {}
    for line in lines:
        parts = line[1:].split()
        if line.startswith("# ") and len(parts) >= 3:
            try:
                out[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (smoke test)")
    parser.add_argument("--perturb", action="store_true",
                        help="offset one reference answer; the checks must count it")
    args = parser.parse_args()
    extra = (["--smoke"] if args.smoke else []) + (["--perturb"] if args.perturb else [])

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        sys.exit(f"e2e_bench: build failed: {e}")

    if args.workload != "all":
        lines, _ = run_one(binary, args.workload, args, extra)
        print("\n".join(lines), flush=True)
        return

    per_workload = {}
    attempted = failed = 0
    for workload in WORKLOADS:
        lines, result = run_one(binary, workload, args, extra)
        print("\n".join(lines[:-1]), flush=True)
        per_workload[workload] = notes(lines)
        attempted += result["attempted"]
        failed += result["failed"]
    metrics = {}
    for name, unit, workload in HEADLINE:
        if workload is None:
            value = max(n.get(name, 0.0) for n in per_workload.values())
        else:
            value = per_workload[workload].get(name, 0.0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"# {name:30s} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
