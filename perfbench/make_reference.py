"""Write the reference tables the correctness gate compares with.

    python3 perfbench/make_reference.py

Runs one pass of every workload at the default seed and copies its tables to
``perfbench/reference``.  The stored tables come from the seed commit; run
this again only to define a new reference on purpose.
"""

from __future__ import annotations

import shutil
import sys

import run
import workloads


def main() -> int:
    run.REFERENCE.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        work = run.WORK / "reference" / workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        for command in workloads.build(workload, workloads.DEFAULT_SEED, work / "inputs"):
            argv = [sys.executable, "-m", "uncertain_ssl.cli", *command.argv]
            child = run.spawn(argv, work, work / command.name)
            if child.returncode != 0:
                print(f"error: {command.name} exited {child.returncode}", file=sys.stderr)
                return 1
            for name in command.outputs:
                shutil.copyfile(work / name, run.REFERENCE / name)
                print(f"wrote {run.REFERENCE / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
