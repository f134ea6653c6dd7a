"""Entry point for ``python -m pimcrypt``, the same command line as ``pimcrypt``."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
