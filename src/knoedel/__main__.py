"""``python -m knoedel``: the command line interface of ``knoedel.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
