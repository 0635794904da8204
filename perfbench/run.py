"""Benchmark entry point: one seeded run of one workload.

    python3 perfbench/run.py --workload serve --seed 3 --seconds 10 --trace 0

Workloads: ``train`` (log file to the first served answer), ``serve``
(read-only request -> reply through a 2-shard cluster, parity-checked
against the in-process predictor), ``churn`` (``serve`` with arrivals,
completions and progress reports before every answer) and ``stream``
(append -> applied + checkpointed through the stream supervisor).

This launcher prepares the seed's inputs first (simulated log, fitted
serving chain; cached under ``.perfbench/inputs``), then runs the
measured client, ``workloads.py``, as a child process, so that neither
input generation nor its memory shows in the measurement.  The last
line of standard output is the result object.  Exits 2 without a result
when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0


def main(argv: list[str] | None = None) -> int:
    start = time.monotonic()
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "serve", "churn", "stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing under {ROOT}/src",
              file=sys.stderr)
        return 2
    # The program's scratch files (fit fan-out matrices) stay in the
    # checkout too.
    scratch = ROOT / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    sys.path.insert(0, str(HERE))
    import inputs

    sizes = inputs.Sizes.tiny() if args.tiny else inputs.Sizes()
    inputs.input_dir(args.seed, sizes,
                     chain=args.workload in ("serve", "churn"))
    left = DEADLINE_S - (time.monotonic() - start)
    try:
        return subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), *argv],
            cwd=str(ROOT), timeout=left,
        ).returncode
    except subprocess.TimeoutExpired:
        print("error: the measured run overran its deadline",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
