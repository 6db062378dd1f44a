"""Smoke self-test of the benchmark at a tiny size (about a minute).

Usage (from the repository root)::

    python3 perfbench/selftest.py

It checks that:

* one seed always generates the same inputs and another seed other inputs;
* every workload, untraced and traced, prints every metric named in
  ``BENCHMARK.json`` with its unit, in the text lines and in the final JSON
  line, with no failed op;
* in a traced run the layer self times add up to the traced op time;
* the gate flags a tampered CSV, a tampered PPM and a tampered report row,
  each on a temporary copy;
* a run with too few ops for ``op_tail_ms`` exits non-zero, printing no result;
* the benchmark exits non-zero, printing no result, in a directory that holds
  only ``BENCHMARK.json`` and this directory.

Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench-out", f"selftest-{os.getpid()}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class CheckFailed(Exception):
    pass


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def bench(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_inputs() -> None:
    for w in workloads.WORKLOADS:
        first = workloads.inputs_sha256(workloads.make_inputs(w, 7))
        check(first == workloads.inputs_sha256(workloads.make_inputs(w, 7)),
              f"{w}: seed 7 gave two different input sets")
        check(first != workloads.inputs_sha256(workloads.make_inputs(w, 8)),
              f"{w}: seeds 7 and 8 gave the same inputs")


def check_metrics(spec: dict) -> None:
    for w in workloads.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(["--workload", w, "--seed", "1", "--seconds", "3",
                          "--trace", str(trace), "--tiny"])
            check(proc.returncode == 0, f"{w} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1])
            check(set(result) == RESULT_KEYS, f"{w}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{w} trace {trace}: {proc.stdout}")
            wanted = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted, f"{w} trace {trace}: metrics {got} != {wanted}")
            for name, unit in wanted.items():
                check(any(ln.startswith(f"{name} = ") and f" {unit}" in ln for ln in lines),
                      f"{w} trace {trace}: no text line for {name} in {unit}")
            if trace:
                check_additivity(lines)


def check_additivity(lines: list[str]) -> None:
    record_line = next(ln for ln in lines if ln.startswith("record = "))
    with open(os.path.join(ROOT, record_line.split(" = ", 1)[1]), encoding="utf-8") as fh:
        record = json.load(fh)
    result = record["result"]
    total = sum(result["self_ms"].values())
    op_ms = result["layers"]["trace.op_ms"]
    check(abs(total - op_ms) <= 1e-9 * op_ms,
          f"layer self times add to {total} ms, traced op time is {op_ms} ms")


def tamper_csv(src: str, dst: str) -> None:
    with open(src, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    row = lines[1].split(",")
    row[0] = repr(float(row[0]) + 1e-3)
    lines[1] = ",".join(row)
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def check_gate() -> None:
    sqg = worker.import_package(ROOT)
    work = os.path.join(SCRATCH, "gate")
    os.makedirs(work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        runner = workloads.Runner(sqg, "artifact-roundtrip")
        entry = workloads.make_inputs("artifact-roundtrip", 1, tiny=True)[0]
        codes = runner.op(entry)
        check(runner.gate(entry, codes) == [], "gate rejects an untouched artifact op")
        tamper_csv("field.csv", "tampered.csv")
        problems = runner.check_artifacts(entry, codes, "tampered.csv", "field.ppm", "render.ppm")
        check(any("CSV" in p for p in problems), f"tampered CSV passed the gate: {problems}")
        with open("render.ppm", "rb") as fh:
            data = bytearray(fh.read())
        data[-1] ^= 0xFF
        with open("tampered.ppm", "wb") as fh:
            fh.write(data)
        problems = runner.check_artifacts(entry, codes, "field.csv", "field.ppm", "tampered.ppm")
        check(any("PPM" in p for p in problems), f"tampered PPM passed the gate: {problems}")

        runner = workloads.Runner(sqg, "exact-check")
        entry = workloads.make_inputs("exact-check", 1, tiny=True)[0]
        out = runner.op(entry)
        check(runner.gate(entry, out) == [], "gate rejects an untouched exact-check op")
        with open("op/report.csv", encoding="utf-8") as fh:
            text = fh.read()
        with open("tampered.csv", "w", encoding="utf-8") as fh:
            fh.write(text.replace(",pass\n", ",fail\n", 1))
        problems = workloads.check_report("tampered.csv", len(out.checks))
        check(any("failed" in p for p in problems), f"tampered report passed: {problems}")
    finally:
        os.chdir(cwd)


def check_bare_directory() -> None:
    bare = os.path.join(SCRATCH, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(["--workload", "exact-check", "--seed", "1", "--seconds", "1", "--trace", "0"],
                 cwd=bare)
    check(proc.returncode != 0, "run in a directory without the package exited 0")
    check('"correct"' not in proc.stdout, "run without the package printed a result")


def check_too_few_ops() -> None:
    proc = bench(["--workload", "turbulent-solve", "--seed", "1", "--seconds", "0.01",
                  "--trace", "0", "--tiny"])
    check(proc.returncode != 0, "a run too short for op_tail_ms exited 0")
    check('"correct"' not in proc.stdout, "a run too short for op_tail_ms printed a result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    steps = (("inputs are a function of the seed", check_inputs),
             ("every metric prints with its unit", lambda: check_metrics(spec)),
             ("the gate flags tampered artifacts", check_gate),
             ("too few ops for the tail, no result", check_too_few_ops),
             ("no package, no result", check_bare_directory))
    failed = 0
    try:
        for name, step in steps:
            try:
                step()
            except CheckFailed as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"ok   {name}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
