"""Puts this directory on ``sys.path`` so test modules can import the shared
helper ``circuit_strategies`` under every pytest import mode, and empties the
contraction plan cache before each test, so that a test counting or patching
the planner sees the same calls whatever ran before it."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _empty_plan_cache():
    from zxwkit import evaluate
    evaluate._plan.cache_clear()
