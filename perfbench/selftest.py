"""Tiny-size self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

1. Every workload runs end to end at tiny sizes, untraced and traced,
   through ``run.py``; each result must be correct, with no failed
   operation, and carry exactly the metric names and units that
   ``BENCHMARK.json`` declares (all of them printed).
2. The output checks catch injected faults: a shard reply nudged by one
   ulp and a stream record dropped on its way into the log must each
   surface as a failed operation.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
SECONDS = 2.0


def declared() -> tuple[dict, dict, list[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layers, [w["name"] for w in spec["workloads"]]


def end_to_end_runs(failures: list[str]) -> None:
    e2e, layers, workloads = declared()
    for workload in workloads:
        for trace, want in ((0, e2e), (1, layers)):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", str(SECONDS),
                 "--trace", str(trace), "--tiny"],
                cwd=str(ROOT), capture_output=True, text=True, timeout=180)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{label}: metrics/units differ from "
                                "BENCHMARK.json")
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: {result['failed']} failed of "
                                f"{result['attempted']}")
            print(f"-- {label}: {result['attempted']} ops, "
                  f"{result['failed']} failed")
            for name, entry in result["metrics"].items():
                print(f"   {name:<36}{entry['value']:>14.6g} {entry['unit']}")


def fault_runs(failures: list[str]) -> None:
    sys.path.insert(0, str(HERE))
    import inputs
    import workloads

    for workload, fault in (("serve", "nudge-shard"),
                            ("stream", "drop-record")):
        args = argparse.Namespace(workload=workload, seed=SEED,
                                  seconds=SECONDS, trace=0)
        result = workloads.run(args, inputs.Sizes.tiny(), fault=fault)[
            "result"]
        caught = result["failed"] >= 1 and not result["correct"]
        print(f"-- {workload} with {fault}: {result['failed']} failed of "
              f"{result['attempted']} -> {'caught' if caught else 'MISSED'}")
        if not caught:
            failures.append(f"{fault} was not caught as a failed operation")


def main() -> int:
    failures: list[str] = []
    end_to_end_runs(failures)
    fault_runs(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("self-test " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
