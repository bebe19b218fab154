"""``python3 -m dfca``: the same command line as the ``dfca`` script."""

import sys

from .cli import main

sys.exit(main())
