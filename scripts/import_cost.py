"""What importing the package costs a fresh interpreter.

For ``import spdmeans`` and ``import spdmeans.cli`` the script starts N
fresh interpreters, each of which imports the module and exits.  It prints
the ``spdmeans`` modules the import loaded, then the median wall time of
an interpreter (start-up included) and the median of their peak resident
set sizes.  Python compiles a module from source unless it finds cached
bytecode, and writes none when ``sys.dont_write_bytecode`` is true (as
with ``PYTHONDONTWRITEBYTECODE=1``), so the first line prints that flag:
the times depend on it.

Run from the repository root (about 0.5 s per interpreter)::

    PYTHONPATH=src python3 scripts/import_cost.py [--runs N]
"""

import argparse
import statistics
import subprocess
import sys
import time

TARGETS = ("spdmeans", "spdmeans.cli")
# the child prints the spdmeans modules it loaded, then its peak RSS
PROBE = ("import resource, sys\n"
         "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'spdmeans'))\n"
         "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")


def measure(target: str) -> tuple[str, float, float]:
    """One fresh interpreter: its loaded modules, wall seconds and peak RSS in MB."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", f"import {target}\n{PROBE}"],
                          capture_output=True, text=True, check=True)
    wall = time.perf_counter() - t0
    modules, rss_kb = proc.stdout.splitlines()
    return modules, wall, int(rss_kb) / 1024.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="interpreters per import (default 5)")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    print(f"dont_write_bytecode {sys.dont_write_bytecode}")
    for target in TARGETS:
        runs = [measure(target) for _ in range(args.runs)]
        print(f"{target} modules: {runs[0][0]}")
        print(f"{target} wall_ms {1e3 * statistics.median(r[1] for r in runs):.1f} "
              f"peak_rss_mb {statistics.median(r[2] for r in runs):.2f} runs {args.runs}")


if __name__ == "__main__":
    main()
