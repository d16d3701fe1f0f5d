"""Write perfbench/pins.json: the reference outputs the benchmark checks.

    python3 perfbench/pin.py [--seeds 0-31,42]

The workload shapes are the constants of workloads.py. Factorial pins are
the sha256 of the CSV and JSON exports for each listed seed. Count pins are
the sha256 of each exact count's big-endian bytes, and of the decimal the
CLI should print, which needs Python's integer string conversion limit
lifted. This script lifts it in its own process; the benchmark never does.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from giftex import cli, counting, harness  # noqa: E402

from workloads import (COUNT_CAPPED, COUNT_CLI_ARGS, COUNT_CLOSED,  # noqa: E402
                       export_hashes, factorial_inputs, int_digest, nproc,
                       sha256)


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def factorial_pins(seeds: list[int]) -> dict:
    pins = {}
    scratch = HERE.parent / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for seed in seeds:
            config, _ = factorial_inputs(seed)
            summaries = harness.run_experiment(config, jobs=nproc())
            pins[str(seed)] = export_hashes(
                summaries, harness.compute_effects(summaries), config, Path(tmp))
    scratch.rmdir()
    return pins


def count_pins() -> dict:
    sys.set_int_max_str_digits(0)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(COUNT_CLI_ARGS)
    if rc != 0:
        raise SystemExit(f"giftex {' '.join(COUNT_CLI_ARGS)} exited {rc}")
    return {
        "capped": int_digest(counting.count_trajectories(*COUNT_CAPPED)),
        "closed": int_digest(counting.count_trajectories(COUNT_CLOSED)),
        "cli_stdout": sha256(stdout.getvalue().encode()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-31,42")
    args = parser.parse_args()
    pins = {"factorial": factorial_pins(_seeds(args.seeds)),
            "count": count_pins()}
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
