"""``python -m tempiric``: the command-line interface of ``tempiric.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
