"""Self-test set-up: import the program from ``src/`` and the benchmark's
modules from this directory.  Run with ``python3 -m pytest perfbench``."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
for path in (os.path.join(os.path.dirname(HERE), "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)
