"""``python -m ramops``: the ``ramops`` command line."""

import sys

from .cli import main

sys.exit(main())
