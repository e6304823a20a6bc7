"""``python -m benchmarks.lakebench``: same as ``run.py``."""

import sys

from benchmarks.lakebench.run import main

sys.exit(main())
