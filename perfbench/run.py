#!/usr/bin/env python3
"""socopt benchmark entry point.

    python3 perfbench/run.py --workload presets --seed 12345 --seconds 20 --trace 0

Run from the repository root (the package is imported from ./src).  See
perfbench/README.md for the workloads, metrics and units, and bench.py for
the measurement itself.
"""

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # The program is single-threaded numpy; pin BLAS to one thread before
    # numpy is first imported so that timings do not depend on core count.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    try:
        import socopt
    except ImportError as exc:
        print(f"perfbench: cannot import the socopt package from ./src: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(socopt.__file__).resolve().is_relative_to(src):
        print(f"perfbench: socopt was imported from {socopt.__file__}, not from ./src", file=sys.stderr)
        sys.exit(2)
    from bench import main

    sys.exit(main())
