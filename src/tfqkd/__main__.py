"""``python -m tfqkd``: the command-line interface of ``tfqkd.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
