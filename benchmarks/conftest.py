"""Benchmark-harness set-up.

The figures' paper-shape checks live in ``src/`` next to their
experiments; registering the modules for assertion rewriting keeps
pytest's operand report when one of them fails under the figure bench.
"""

import pytest

pytest.register_assert_rewrite("repro.experiments.figures",
                               "repro.experiments.ablations")
