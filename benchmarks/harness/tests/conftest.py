"""The harness is a directory of scripts, not a package: its tests import
the modules the way ``run.py`` does."""

import os
import sys

HARNESS = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(HARNESS))
sys.path[:0] = [HARNESS, os.path.join(ROOT, "src")]
