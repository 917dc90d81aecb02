"""Differential harness: served materializations against an oracle.

Every round the service runs — concurrent columnar units under any
registered scheduler, compiled through the plan cache, with or without
a maintenance-strategy shadow engine — must land on exactly the
materialization that :func:`~repro.datalog.seminaive.naive_evaluate`
computes from scratch over the service's accumulated EDB. The naive
evaluator shares no code with the hot path: it runs the per-tuple
row joins, not the columnar batch joins, and no compiled DAG,
executor, or plan cache. The comparison is on canonical bytes after
every round, across every registered scheduler, every maintenance
oracle, and the seeded stream shapes.
"""

from __future__ import annotations

import pytest

from repro.datalog.seminaive import naive_evaluate
from repro.runtime import UpdateStreamService, live_workload, make_stream
from repro.schedulers import scheduler_registry

REGISTRY = scheduler_registry()
ALL_SCHEDULERS = sorted(REGISTRY)


def canonical_bytes(db) -> bytes:
    """Canonical byte serialization of a database's materialization."""
    rows = [
        (name, sorted(facts))
        for name, facts in sorted(db.as_dict().items())
    ]
    return repr(rows).encode()


def serve(
    name,
    kind,
    *,
    scheduler="hybrid",
    maintenance=None,
    rounds=3,
    seed=5,
    workers=3,
    **wl_kwargs,
):
    """Serve ``rounds`` ticks, checking every round against the oracle.

    Returns the canonical bytes of the final materialization.
    """
    wl = live_workload(name, seed=seed, **wl_kwargs)
    svc = UpdateStreamService(
        wl.program,
        wl.edb,
        REGISTRY[scheduler](),
        workers=workers,
        maintenance=maintenance,
    )
    served = 0
    for batches in make_stream(wl, kind, rounds=rounds, batch_size=2):
        for delta in batches:
            svc.submit(delta)
        rep = svc.run_round()
        if rep is None:
            continue
        served += 1
        oracle = naive_evaluate(wl.program, svc.database())
        assert canonical_bytes(svc.materialization()) == canonical_bytes(
            oracle
        ), f"round {rep.index} diverges from naive evaluation"
    assert served > 0
    return canonical_bytes(svc.materialization())


@pytest.mark.parametrize("sched", ALL_SCHEDULERS)
def test_served_matches_naive_all_schedulers(sched):
    """Every registered scheduler serves the oracle's bytes."""
    serve("tc", "steady", scheduler=sched)
    serve("tc", "steady", scheduler=sched, n=24, extra_edges=10)


@pytest.mark.parametrize("strategy", ["dred", "bf", "counting"])
def test_maintenance_oracles_match_naive(strategy):
    """Every maintenance-strategy shadow engine agrees with the oracle.

    The shadow engine replays each round and insists it matches the
    compiled new side — a per-round tripwire on top of the naive
    comparison. Counting rejects recursion, so it runs over the
    non-recursive retail_flat workload; dred/bf get the closure.
    """
    workload = "flat" if strategy == "counting" else "tc"
    serve(workload, "mixed", maintenance=strategy)


@pytest.mark.parametrize("kind", ["steady", "bursty", "deletions", "mixed"])
def test_stream_kinds_match_naive(kind):
    """Oracle identity holds across the seeded stream shapes."""
    serve("sg", kind, depth=4, fanout=2)
    serve("retail", kind)


def test_points_to_matches_naive():
    """The points-to workload, with its multi-way joins."""
    serve("pt", "steady", n_vars=12, n_stmts=24)


def test_bursty_closure_matches_naive():
    """Coalesced bursts over the recursive closure, where the plan
    cache's baseline reuse and plan patching do the most work."""
    serve("tc", "bursty")
