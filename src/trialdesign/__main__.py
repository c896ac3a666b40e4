"""Run the command line as ``python -m trialdesign``."""

import sys

from .cli import main

sys.exit(main())
