"""Tests for the Datalog-derived workloads."""

import pytest

from repro.schedulers import HybridScheduler, LevelBasedScheduler
from repro.sim import simulate
from repro.workloads.datalog_workloads import (
    DATALOG_WORKLOADS,
    compile_workload,
    points_to,
    retail_rollup,
    same_generation,
    transitive_closure,
)


def test_unknown_name_rejected():
    with pytest.raises(KeyError, match="unknown"):
        compile_workload("nope")


@pytest.mark.parametrize("name", sorted(DATALOG_WORKLOADS))
def test_each_workload_compiles_and_schedules(name):
    kwargs = {"depth": 4} if name == "same_generation" else {}
    if name == "transitive_closure":
        kwargs = {"n": 25, "extra_edges": 10}
    if name == "points_to":
        kwargs = {"n_vars": 12, "n_stmts": 25}
    if name == "retail_rollup":
        kwargs = {"n_products": 20, "n_stores": 8}
    cu = compile_workload(name, **kwargs)
    tr = cu.trace
    assert tr.n_active_jobs >= 1
    a = simulate(tr, LevelBasedScheduler(), processors=4)
    b = simulate(tr, HybridScheduler(), processors=4)
    assert a.tasks_executed == b.tasks_executed == tr.n_active


def test_tc_update_is_consistent():
    prog, edb, delta = transitive_closure(n=20, extra_edges=8, seed=1)
    from repro.datalog import IncrementalEngine, seminaive_evaluate

    eng = IncrementalEngine(prog, edb)
    eng.apply(delta)
    # oracle: rebuild the final EDB and evaluate from scratch
    final = edb.copy()
    for pred, facts in delta.deletions.items():
        for f in facts:
            final.relations[pred].discard(f)
    for pred, facts in delta.insertions.items():
        for f in facts:
            final.relation(pred, len(f)).add(f)
    oracle, _ = seminaive_evaluate(prog, final)
    assert eng.snapshot()["path"] == oracle.as_dict()["path"]


def test_tc_without_shortcuts_deletes_a_chain_edge():
    prog, edb, delta = transitive_closure(n=12, extra_edges=0)
    assert delta.deletions == {"edge": {(10, 11)}}
    assert (10, 11) in edb.relations["edge"]
    assert delta.insertions == {"edge": {(1, 6)}}


def test_tc_single_node_chain_deletes_nothing():
    _, _, delta = transitive_closure(n=1, extra_edges=0)
    assert not any(delta.deletions.values())


def test_retail_uses_negation():
    prog, edb, delta = retail_rollup(seed=2)
    assert any(
        lit.negated for r in prog.proper_rules for lit in r.body
    )


def test_same_generation_nontrivial():
    prog, edb, delta = same_generation(depth=4, fanout=2)
    from repro.datalog import seminaive_evaluate

    db, _ = seminaive_evaluate(prog, edb)
    assert db.count("sg") > db.count("sibling") > 0


def test_points_to_deterministic():
    a = points_to(seed=3)
    b = points_to(seed=3)
    assert a[1].as_dict() == b[1].as_dict()
