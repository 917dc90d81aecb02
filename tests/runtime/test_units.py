"""Execution plans reproduce the compiler's ground truth.

The central purity claim of the runtime: executing every unit in any
precedence-respecting order rebuilds the new materialization exactly,
and the per-node output diffs reproduce the compiled activation flags.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datalog.seminaive import naive_evaluate
from repro.datalog.units import build_execution_plan

from .conftest import WORKLOADS


@pytest.mark.parametrize("name", WORKLOADS)
class TestSerialReference:
    def test_compiled_sides_match_naive(self, compiled_workloads, name):
        """Both materializations the compiler records equal naive
        evaluation of the matching EDB snapshot — an oracle sharing no
        code with the compile path the other cases compare against."""
        cu = compiled_workloads[name]
        for db, edb in ((cu.db_old, cu.edb_old), (cu.db_new, cu.edb_new)):
            assert db.as_dict() == naive_evaluate(cu.program, edb).as_dict()

    def test_materialization_matches_db_new(self, compiled_workloads, name):
        cu = compiled_workloads[name]
        plan = build_execution_plan(cu)
        values, _ = plan.execute_serial()
        assert plan.materialization(values).as_dict() == cu.db_new.as_dict()

    def test_diffs_match_compiled_flags(self, compiled_workloads, name):
        """Real per-node change flags == the compiler's precomputed ones."""
        cu = compiled_workloads[name]
        plan = build_execution_plan(cu)
        _, diffs = plan.execute_serial()
        dag = cu.trace.dag
        mismatches = []
        for node, changed in diffs.items():
            lo, hi = dag.out_edge_range(node)
            if hi == lo:
                continue  # sink: the compiled flag is not observable
            if bool(cu.trace.changed_edges[lo]) != changed:
                mismatches.append(node)
        assert mismatches == []

    def test_executed_set_is_sufficient(self, compiled_workloads, name):
        """Running only ``W`` (skipped nodes keep their old values)
        still lands exactly on the new materialization — the soundness
        property incremental maintenance rests on."""
        cu = compiled_workloads[name]
        plan = build_execution_plan(cu)
        executed = cu.trace.propagation.executed
        sparse = plan.new_store()
        for node in np.argsort(cu.trace.levels, kind="stable"):
            if executed[int(node)]:
                unit = plan.units[int(node)]
                sparse.set(unit.node, unit.execute(sparse))
        assert plan.materialization(sparse).as_dict() == cu.db_new.as_dict()


def test_value_store_falls_back_to_old_values(compiled_workloads):
    cu = compiled_workloads["transitive_closure"]
    plan = build_execution_plan(cu)
    store = plan.new_store()
    assert not store.computed(0)
    assert store[0] == plan.old_values[0]
    store.set(0, frozenset({("x",)}))
    assert store.computed(0)
    assert store[0] == frozenset({("x",)})
