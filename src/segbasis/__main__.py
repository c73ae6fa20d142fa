"""``python -m segbasis``: the same command line as the ``segbasis`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
