"""Deletion-heavy and mixed streams through the full service stack.

The weighted-delta core's safety net: retraction-skewed and
churn-heavy streams must match from-scratch naive evaluation after
every round and land on byte-identical materializations with chaos on
or off, under every registered scheduler and every maintenance
strategy — while the coalescing machinery (cancelled ops, no-op
rounds, weighted index application) demonstrably engages.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog import Delta, naive_evaluate, seminaive_evaluate
from repro.runtime import (
    ChaosPlan,
    HealthPolicy,
    STRATEGY_CHOICES,
    UpdateStreamService,
    live_workload,
    make_stream,
)
from repro.schedulers import scheduler_registry

REGISTRY = scheduler_registry()
ROUNDS = 6


def _materialized_stream(program: str, kind: str, seed: int, **kw):
    """Workload plus a pre-generated stream (list of batch lists).

    ``make_stream`` mutates the workload's mirror as it generates, so
    the stream is materialized once and the same batches are fed to
    every service under comparison.
    """
    wl = live_workload(program, seed=seed)
    rounds = [
        list(batches)
        for batches in make_stream(wl, kind, rounds=ROUNDS, **kw)
    ]
    return wl, rounds


def _serve(wl, rounds, check_naive=False, **svc_kw):
    """Serve the pre-generated ``rounds``; with ``check_naive`` every
    served round's materialization must equal naive evaluation of the
    service's accumulated EDB."""
    svc = UpdateStreamService(
        wl.program, wl.edb, svc_kw.pop("scheduler"), workers=2, **svc_kw
    )
    reports = []
    for batches in rounds:
        for delta in batches:
            svc.submit(delta)
        rep = svc.run_round()
        if rep is not None:
            assert rep.materialization_ok
            if check_naive:
                oracle = naive_evaluate(wl.program, svc.database())
                assert svc.materialization().as_dict() == (
                    oracle.as_dict()
                ), f"round {rep.index} diverges from naive evaluation"
            reports.append(rep)
    return svc, reports


class TestCacheDifferential:
    """The plan cache against naive evaluation on retraction streams."""

    @pytest.mark.parametrize("sched_name", sorted(REGISTRY))
    @pytest.mark.parametrize("kind", ("deletions", "mixed"))
    def test_vs_naive(self, sched_name, kind):
        """Every served round equals naive evaluation of the service's
        accumulated EDB."""
        wl, rounds = _materialized_stream("flat", kind, seed=11,
                                          batch_size=3)
        svc, reports = _serve(
            wl, rounds, check_naive=True, scheduler=REGISTRY[sched_name]()
        )
        assert reports and svc.materialization() is not None

    def test_recursive_program_deletion_stream(self):
        # deletion-heavy streams over the recursive TC workload too —
        # the compiler re-runs semi-naive evaluation over the shrunken
        # EDB (it does not run DRed), so retractions can shorten the
        # unrolled recursion
        wl, rounds = _materialized_stream("tc", "deletions", seed=7,
                                          batch_size=2)
        svc, _ = _serve(wl, rounds, scheduler=REGISTRY["hybrid"]())
        mat = svc.materialization()
        assert mat is not None
        oracle, _ = seminaive_evaluate(wl.program, svc.database())
        assert mat.as_dict() == oracle.as_dict()


class TestChaosDifferential:
    """Chaos on vs off: deletion streams still converge byte-identical
    (the retried rounds replay the same weighted deltas)."""

    @pytest.mark.parametrize("kind", ("deletions", "mixed"))
    def test_chaos_on_off_identical(self, kind):
        wl, rounds = _materialized_stream("flat", kind, seed=13,
                                          batch_size=3)
        base, _ = _serve(
            wl, rounds, scheduler=REGISTRY["hybrid"]()
        )
        chaos = ChaosPlan(
            seed=5,
            unit_fail_prob=0.2,
            unit_latency_prob=0.1,
            unit_latency_s=(0.0003, 0.001),
        )
        svc = UpdateStreamService(
            wl.program,
            wl.edb,
            REGISTRY["hybrid"](),
            workers=2,
            chaos=chaos,
            unit_retries=5,
            unit_backoff_s=0.0005,
            max_round_retries=8,
            health=HealthPolicy(degrade_after=4, fail_after=16,
                                probe_after=1),
        )
        for batches in rounds:
            for delta in batches:
                svc.submit(delta)
            while svc.pending_batches() > 0:
                try:
                    svc.run_round()
                except Exception as exc:  # typed, re-queued, retried
                    assert getattr(exc, "delta_requeued", False), exc
        assert svc.materialization() is not None
        assert (
            svc.materialization().as_dict()
            == base.materialization().as_dict()
        )
        assert svc.database().as_dict() == base.database().as_dict()


class TestCoalescing:
    """Cancelled pairs measurably skip compilation and index work."""

    def test_pure_churn_round_is_noop(self):
        wl = live_workload("flat", seed=3)
        svc = UpdateStreamService(
            wl.program, wl.edb, REGISTRY["hybrid"](), workers=2
        )
        # a first real round, so a materialization exists
        svc.submit(wl.random_batch(2))
        first = svc.run_round()
        assert first is not None and not first.metrics.noop
        mat_before = svc.materialization().as_dict()
        # then a round of pure insert/retract churn
        for delta in wl.churn_batches(3):
            svc.submit(delta)
        rep = svc.run_round()
        m = rep.metrics
        assert m.noop is True
        assert m.tasks_executed == 0 and m.n_nodes == 0
        assert m.cancelled_ops > 0
        assert m.compile_s == 0.0 and m.execute_s == 0.0
        assert rep.compiled is None and rep.artifacts is None
        assert rep.materialization_ok
        assert svc.materialization().as_dict() == mat_before
        assert svc.pending_batches() == 0
        # no-op rounds still count and land in the metrics log
        assert svc.metrics.rounds[-1].noop is True
        reg = svc.metrics.registry
        assert reg.counter("noop_rounds").value == 1

    def test_insert_then_delete_across_batches_cancels(self):
        wl = live_workload("flat", seed=3)
        svc = UpdateStreamService(
            wl.program, wl.edb, REGISTRY["hybrid"](), workers=2
        )
        svc.submit(wl.random_batch(2))
        assert svc.run_round() is not None
        # delete a present fact and immediately re-insert it: the two
        # queued batches coalesce to nothing
        pred = sorted(wl._mirror)[0]
        fact = sorted(wl._mirror[pred])[0]
        svc.submit(Delta().delete(pred, fact))
        svc.submit(Delta().insert(pred, fact))
        rep = svc.run_round()
        assert rep.metrics.noop is True
        # merge_deltas nets the pair to one op, which then cancels
        # against the live EDB
        assert rep.metrics.cancelled_ops == 1
        assert rep.metrics.batches_coalesced == 2

    def test_mixed_stream_reports_cancellations(self):
        wl, rounds = _materialized_stream("flat", "mixed", seed=17,
                                          batch_size=3)
        svc, reports = _serve(wl, rounds, scheduler=REGISTRY["hybrid"]())
        reg = svc.metrics.registry
        assert reg.counter("cancelled_ops").value > 0
        assert reg.counter("noop_rounds").value > 0
        stats = svc.plan_cache.stats()
        # index maintenance went through the exact weighted path
        assert stats["relations"]["weighted_derives"] > 0

    def test_first_round_with_empty_effective_delta_still_compiles(self):
        # before any materialization exists there is nothing to fall
        # back on: an all-cancelled first round must compile
        wl = live_workload("flat", seed=3)
        svc = UpdateStreamService(
            wl.program, wl.edb, REGISTRY["hybrid"](), workers=2
        )
        for delta in wl.churn_batches(2):
            svc.submit(delta)
        rep = svc.run_round()
        assert rep is not None and not rep.metrics.noop
        assert rep.compiled is not None
        assert svc.materialization() is not None


class TestStrategyOracle:
    """The maintenance= shadow engine verifies every round."""

    @pytest.mark.parametrize("strategy", STRATEGY_CHOICES)
    @pytest.mark.parametrize("kind", ("deletions", "mixed"))
    def test_strategies_track_scheduled_runtime(self, strategy, kind):
        wl, rounds = _materialized_stream("flat", kind, seed=19,
                                          batch_size=3)
        svc, _ = _serve(
            wl,
            rounds,
            scheduler=REGISTRY["levelbased"](),
            maintenance=strategy,
        )
        mat = svc.materialization()
        assert mat is not None
        oracle, _ = seminaive_evaluate(wl.program, svc.database())
        assert mat.as_dict() == oracle.as_dict()

    def test_bf_on_recursive_workload(self):
        # counting rejects recursion, but bf and dred must take it
        for strategy in ("dred", "bf"):
            wl, rounds = _materialized_stream("tc", "deletions", seed=23,
                                              batch_size=2)
            svc, _ = _serve(
                wl,
                rounds,
                scheduler=REGISTRY["hybrid"](),
                maintenance=strategy,
            )
            assert svc.materialization() is not None

    def test_unknown_strategy_rejected(self):
        wl = live_workload("flat", seed=3)
        with pytest.raises(ValueError, match="maintenance"):
            UpdateStreamService(
                wl.program, wl.edb, REGISTRY["hybrid"](),
                maintenance="gms2",
            )


class TestRandomizedStreams:
    @given(
        seed=st.integers(0, 2**16),
        kind=st.sampled_from(("deletions", "mixed")),
    )
    @settings(max_examples=10, deadline=None)
    def test_stream_matches_from_scratch(self, seed, kind):
        wl, rounds = _materialized_stream("flat", kind, seed=seed,
                                          batch_size=3)
        svc, _ = _serve(wl, rounds, scheduler=REGISTRY["levelbased"]())
        mat = svc.materialization()
        if mat is None:
            return
        oracle, _ = seminaive_evaluate(wl.program, svc.database())
        assert mat.as_dict() == oracle.as_dict()
