"""Puts this directory on ``sys.path`` so test modules can import the shared
helper ``circuit_strategies`` under every pytest import mode, and empties the
contraction plan cache and the controlled-sum template cache before each
test, so that a test counting or patching the planner, the builds or the
``validate`` calls sees the same calls whatever ran before it."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(autouse=True)
def _empty_caches():
    from zxwkit import controlled, evaluate
    evaluate._plan.cache_clear()
    controlled._sum_template.cache_clear()
