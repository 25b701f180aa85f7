"""Puts this directory on ``sys.path`` so test modules can import the shared
helper ``circuit_strategies`` under every pytest import mode."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
