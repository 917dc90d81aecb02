"""Shared fixtures for the runtime suite."""

from __future__ import annotations

import pytest

from repro.workloads.datalog_workloads import compile_workload

WORKLOADS = (
    "transitive_closure",
    "same_generation",
    "retail_rollup",
    "retail_analytics",
    "retail_flat",
    "points_to",
)


@pytest.fixture(scope="session")
def compiled_workloads():
    """One compiled update per workload, shared across the suite."""
    return {name: compile_workload(name) for name in WORKLOADS}
