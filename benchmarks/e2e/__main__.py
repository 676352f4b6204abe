"""``python -m benchmarks.e2e`` — same entry point as ``run.py``."""

import sys

from benchmarks.e2e.run import main

if __name__ == "__main__":
    sys.exit(main())
