"""`python -m atiyahcheck`: the same command line as `atiyahcheck` (see cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
