"""Set-up probe: import ``repro`` and build one workload's config and plan.

``run.py`` starts this script as a fresh process several times per run and
reports the median wall time as ``setup_s``.  Run it from the repository
root with ``src`` on ``PYTHONPATH``.
"""

import argparse
from pathlib import Path

from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    WORKLOADS[args.workload](args.seed, Path(args.workdir))


if __name__ == "__main__":
    main()
