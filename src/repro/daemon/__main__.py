"""``python -m repro.daemon ...`` forwards to ``python -m repro daemon ...``
(kept because ``benchmarks/blockbench`` launches the daemon this way)."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main(["daemon", *sys.argv[1:]]))
