"""Live workload generators: validity, determinism, stream shapes."""

from __future__ import annotations

import pytest

from repro.datalog.incremental import apply_delta, merge_deltas
from repro.runtime.workloads_live import (
    PROGRAM_ALIASES,
    STREAM_KINDS,
    live_workload,
    make_stream,
)


def all_facts(db):
    return db.as_dict()


class TestLiveWorkload:
    def test_aliases_resolve(self):
        for alias in ("tc", "sg", "retail", "analytics", "pt"):
            wl = live_workload(alias)
            assert wl.name in PROGRAM_ALIASES.values()

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown live program"):
            live_workload("nope")

    def test_batches_touch_only_edb_predicates(self):
        wl = live_workload("retail", seed=1)
        idb = wl.program.idb_predicates()
        for _ in range(20):
            delta = wl.random_batch(3)
            for pred in delta.touched_predicates():
                assert pred not in idb

    def test_deletions_are_of_present_facts(self):
        """The mirror keeps deletions valid across many batches."""
        wl = live_workload("tc", seed=2)
        db = wl.edb.copy()
        for _ in range(30):
            delta = wl.random_batch(3)
            for pred, facts in delta.deletions.items():
                for f in facts:
                    assert f in db.relations[pred]
            db = apply_delta(db, delta)

    def test_deterministic_across_instances(self):
        a = live_workload("sg", seed=9)
        b = live_workload("sg", seed=9)
        for _ in range(10):
            da = a.random_batch(2)
            db_ = b.random_batch(2)
            assert da.insertions == db_.insertions
            assert da.deletions == db_.deletions

    def test_hot_key_is_pinned(self):
        wl = live_workload("retail", seed=4)
        pred, key = wl.hot_key
        delta = wl.random_batch(8, hot=True)
        for p in delta.touched_predicates():
            assert p == pred
        for facts in delta.insertions.values():
            for f in facts:
                assert f[0] == key


class TestStreams:
    def test_unknown_kind(self):
        wl = live_workload("retail")
        with pytest.raises(ValueError, match="unknown stream kind"):
            list(make_stream(wl, "trickle", rounds=1))

    @pytest.mark.parametrize("kind", STREAM_KINDS)
    def test_yields_requested_rounds(self, kind):
        wl = live_workload("retail", seed=0)
        ticks = list(make_stream(wl, kind, rounds=6))
        assert len(ticks) == 6
        for batches in ticks:
            assert len(batches) >= 1

    def test_bursty_has_bursts(self):
        wl = live_workload("retail", seed=0)
        sizes = [
            len(b)
            for b in make_stream(
                wl, "bursty", rounds=8, burst_every=4, burst_batches=5
            )
        ]
        assert sizes.count(5) == 2
        assert sizes.count(1) == 6

    def test_stream_applies_cleanly(self):
        """Accumulated stream deltas compose over the initial EDB."""
        wl = live_workload("pt", seed=6)
        db = wl.edb.copy()
        deltas = []
        for batches in make_stream(wl, "steady", rounds=5):
            deltas.extend(batches)
        merged = merge_deltas(deltas)
        stepped = db
        for d in deltas:
            stepped = apply_delta(stepped, d)
        assert (
            apply_delta(db, merged).as_dict() == stepped.as_dict()
        )

    def test_deletions_stream_is_delete_skewed(self):
        wl = live_workload("flat", seed=8)
        n_ins = n_del = 0
        for batches in make_stream(
            wl, "deletions", rounds=20, batch_size=3
        ):
            for d in batches:
                n_ins += sum(len(s) for s in d.insertions.values())
                n_del += sum(len(s) for s in d.deletions.values())
        assert n_del > n_ins

    def test_deletions_stream_survives_an_emptied_edb(self):
        """Once deletions empty every relation, batches insert again."""
        wl = live_workload("retail", seed=17)
        sizes = [
            sum(len(facts) for facts in wl._mirror.values())
            for _ in make_stream(wl, "deletions", rounds=100)
        ]
        assert len(sizes) == 100
        first_empty = sizes.index(0)
        assert any(sizes[first_empty:])

    def test_churn_batches_cancel_under_merge(self):
        wl = live_workload("flat", seed=8)
        mirror_before = {p: set(s) for p, s in wl._mirror.items()}
        pair = wl.churn_batches(4)
        assert len(pair) == 2
        merged = merge_deltas(pair)
        # later op wins: the merged delta only *deletes*, and only
        # facts absent from the live EDB — every op cancels against it
        assert not any(merged.insertions.values())
        for pred, facts in merged.deletions.items():
            for f in facts:
                assert f not in mirror_before.get(pred, set())
        # and the generator's mirror is untouched (net no-op)
        assert wl._mirror == mirror_before

    def test_mixed_stream_has_pure_churn_rounds(self):
        wl = live_workload("flat", seed=8)
        db = wl.edb.copy()
        noop_rounds = 0
        for batches in make_stream(wl, "mixed", rounds=9, batch_size=3):
            merged = merge_deltas(batches)
            stepped = apply_delta(db, merged)
            if stepped.as_dict() == db.as_dict():
                noop_rounds += 1
            db = stepped
        assert noop_rounds >= 3
