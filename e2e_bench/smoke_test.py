#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at tiny sizes (coarse grid, short
windows, few queries).  For every workload it checks that

  * an untraced run is correct and emits every end-to-end metric listed in
    BENCHMARK.json, with the listed unit;
  * a traced run emits every per-layer metric, with the listed unit;
  * a run with one deliberately perturbed reference answer is counted as
    failed (so error_rate would be nonzero) and is not correct.

    python3 e2e_bench/smoke_test.py --binary .bench_build/e2e/e2e_bench --spec BENCHMARK.json
"""
import argparse
import json
import subprocess
import sys


def run(binary, workload, trace, perturb=False):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "0.3",
           "--trace", str(trace), "--smoke"] + (["--perturb"] if perturb else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise AssertionError(f"{workload}: attempted = {result['attempted']!r}")
    return result


def check_metrics(workload, result, listed):
    emitted = result["metrics"]
    for metric in listed:
        got = emitted.get(metric["name"])
        if got is None:
            raise AssertionError(f"{workload}: metric {metric['name']} not emitted")
        if got.get("unit") != metric["unit"]:
            raise AssertionError(f"{workload}: {metric['name']} has unit {got.get('unit')!r}, "
                                 f"listed {metric['unit']!r}")
        if not isinstance(got.get("value"), (int, float)):
            raise AssertionError(f"{workload}: {metric['name']} value {got.get('value')!r}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", required=True)
    parser.add_argument("--spec", required=True, help="path to BENCHMARK.json")
    args = parser.parse_args()
    with open(args.spec) as f:
        spec = json.load(f)

    for workload in [w["name"] for w in spec["workloads"]]:
        plain = run(args.binary, workload, 0)
        if not plain["correct"] or plain["failed"] != 0:
            raise AssertionError(f"{workload}: untraced smoke run is not correct: {plain}")
        check_metrics(workload, plain, spec["end_to_end"])
        for metric in spec["end_to_end"]:
            if plain["metrics"][metric["name"]]["value"] == 0:
                raise AssertionError(f"{workload}: end-to-end metric {metric['name']} is 0")

        traced = run(args.binary, workload, 1)
        if not traced["correct"]:
            raise AssertionError(f"{workload}: traced smoke run is not correct: {traced}")
        check_metrics(workload, traced, spec["per_layer"])

        perturbed = run(args.binary, workload, 0, perturb=True)
        if perturbed["correct"] or perturbed["failed"] < 1:
            raise AssertionError(f"{workload}: perturbed reference not counted: {perturbed}")
        print(f"ok {workload}", flush=True)


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        sys.exit(f"FAIL: {e}")
