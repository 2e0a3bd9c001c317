"""``python -m relucert``: the command-line interface of ``relucert.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
