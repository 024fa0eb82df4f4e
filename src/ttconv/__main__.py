"""``python -m ttconv``: the ``ttconv`` command-line tool."""

import sys

from . import cli

sys.exit(cli.main())
