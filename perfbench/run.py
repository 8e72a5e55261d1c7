#!/usr/bin/env python3
"""Builds the benchmark from source, runs one workload, and relays its output.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train_compute --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The package under perfbench/ is configured with CMake into .bench_build/ on
first use and rebuilt incrementally after that. The benchmark binary prints
human-readable lines and, as its last stdout line, one JSON result object;
this script passes both through and exits with the binary's exit code.
--trace 1 also writes a Chrome trace to .bench_build/trace_<workload>.json
(open it in Perfetto or about:tracing).

--self-test checks the benchmark itself: every metric in BENCHMARK.json is
printed with its unit by the matching mode, names are well formed, two
seeds pass the correctness checks, and a deliberately perturbed check
reference makes each workload fail.
"""
import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170
WORKLOADS = ("train_compute", "train_comm", "eval_ir")
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def build():
    if not (ROOT / "src" / "core" / "trainer.h").is_file():
        sys.exit(f"perfbench: no PodNet sources under {ROOT / 'src'}")
    log = BUILD / "build.log"
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                sys.exit(f"perfbench: build failed ({' '.join(cmd)})")


def run(workload, seed, seconds, trace, perturb=False):
    """Runs the binary; returns (exit code, stdout)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--trace-out", str(BUILD / f"trace_{workload}.json")]
    if perturb:
        cmd.append("--perturb")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout


def result_of(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def self_test():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), \
        "BENCHMARK.json workloads differ from the benchmark's"
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "metric names repeat"
    for name in names:
        assert NAME_RE.fullmatch(name), f"bad metric name {name!r}"
    for workload in WORKLOADS:
        for seed, trace in ((1, False), (2, False), (3, True)):
            code, out = run(workload, seed, 2, trace)
            res = result_of(out)
            assert code == 0 and res["correct"] and res["failed"] == 0, \
                f"{workload} seed {seed} trace {trace} failed:\n{out}"
            want = spec["per_layer" if trace else "end_to_end"]
            for m in want:
                got = res["metrics"].get(m["name"])
                assert got is not None, f"{workload}: {m['name']} not printed"
                assert got["unit"] == m["unit"], \
                    f"{workload}: {m['name']} in {got['unit']}, not {m['unit']}"
            assert set(res["metrics"]) == {m["name"] for m in want}, \
                f"{workload}: extra metrics {set(res['metrics']) - set(names)}"
        code, out = run(workload, 1, 2, False, perturb=True)
        res = result_of(out)
        assert code == 1 and not res["correct"] and res["failed"] > 0, \
            f"{workload}: perturbed reference was not caught:\n{out}"
        print(f"self-test {workload}: ok")
    print("self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    build()
    if args.self_test:
        self_test()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    code, out = run(args.workload, args.seed, args.seconds, args.trace == 1)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
