"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. This process pins the environment
(``config.COMMON_ENV`` plus the workload's ``REPRO_*`` row), points
``REPRO_CACHE_DIR`` at a fresh directory under ``.perfbench_out/tmp``,
runs :mod:`harness` for the workload in a fresh interpreter, relays its
output and removes the directory afterwards. The last line of standard
output is the result (see README.md).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: A run may take 180 s; the workload process gets a little less.
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
from config import COMMON_ENV, WORKLOADS  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT / "tmp")
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(COMMON_ENV)
    env.update(WORKLOADS[args.workload]["env"])
    env["REPRO_CACHE_DIR"] = tmp
    env["PYTHONPATH"] = str(ROOT / "src")
    try:
        child = subprocess.run(
            [sys.executable, str(HERE / "harness.py"), *argv],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"workload run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if child.returncode != 0:
        sys.stderr.write(child.stdout)
        print(f"workload run failed with exit code {child.returncode}",
              file=sys.stderr)
        return child.returncode if child.returncode > 0 else 4
    sys.stdout.write(child.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
