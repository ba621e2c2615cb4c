"""``python -m mvgc``: the same command line as the ``mvgc`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
