"""A node budget for every search the suite runs without one, and the one
switch for the long tests.

A search that loses its pruning then stops at the budget and its test fails
on the count or on ``exhaustive``, instead of running for hours.  The
largest search the suite runs without a budget of its own is the
unconstrained size-2 tree, 16,383 nodes.

A test marked ``long`` runs only when RELALG_LONG=1 is set.
"""

import os
import sys
from dataclasses import replace

import pytest

import relalg  # noqa: F401  (loads relalg.search)

NODE_BUDGET = 20_000


def pytest_collection_modifyitems(items):
    if os.environ.get("RELALG_LONG") == "1":
        return
    skip = pytest.mark.skip(reason="long-running; set RELALG_LONG=1 to enable")
    for item in items:
        if item.get_closest_marker("long"):
            item.add_marker(skip)


@pytest.fixture(scope="session")
def engine():
    """The search module.  The function ``relalg.search`` shadows it in the
    package namespace, so ``import relalg.search as S`` binds the function."""
    return sys.modules["relalg.search"]


@pytest.fixture(scope="session", autouse=True)
def node_budget(engine):
    # session scope: module-scoped fixtures, such as test_report's
    # budget-cut report, run before any function-scoped one
    run = engine._run

    def budgeted(spec, *rest):
        if spec.node_limit is None:
            spec = replace(spec, node_limit=NODE_BUDGET)
        return run(spec, *rest)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_run", budgeted)
        yield
