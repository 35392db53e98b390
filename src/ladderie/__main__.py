"""``python -m ladderie``: the command line of :mod:`ladderie.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
