"""``python -m thermbench``: the command-line front end of :mod:`thermbench.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
