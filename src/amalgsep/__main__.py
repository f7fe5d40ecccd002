"""Entry point for ``python -m amalgsep``; the same command line as ``amalgsep``."""

import sys

from .cli import main

sys.exit(main())
