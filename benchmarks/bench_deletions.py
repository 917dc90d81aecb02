"""Deletion-path maintenance: strategies × schedulers on retraction streams.

Drives the update-stream service over two seeded retraction-heavy
streams — ``deletions`` (~80% retractions) and ``mixed`` (real work
interleaved with insert/retract churn that cancels under weighted
coalescing) — once per registered scheduler and once per maintenance
strategy (``dred``, ``bf``, ``counting``). The strategy runs as the
service's shadow oracle: every round's effective delta is replayed
through the engine and its snapshot compared against from-scratch
evaluation, so each serve is itself a differential check.

The ``mixed`` stream is the cancellation showcase: the JSON reports
how many submitted operations the weighted Z-set coalescing removed
(``cancelled_ops``), how many rounds collapsed to no-ops that skipped
compile/plan/execute entirely (``noop_rounds``), and how many index
derives took the exact O(|delta|) weighted path
(``weighted_derives``).

Writes ``BENCH_deletions.json`` at the repo root. ``--quick`` (the CI
``bench-smoke`` mode) shrinks the stream and scheduler set and
enforces the smoke gate: the mixed stream must cancel operations and
skip rounds, and every serve must end byte-identical to from-scratch
evaluation.

Usage::

    PYTHONPATH=src python benchmarks/bench_deletions.py [--quick]
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest
from conftest import run_once

from repro.analysis import render_table
from repro.datalog import seminaive_evaluate
from repro.runtime import UpdateStreamService, live_workload, make_stream
from repro.schedulers import scheduler_registry

BENCH_JSON = Path(__file__).parent.parent / "BENCH_deletions.json"

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
#: non-recursive on purpose: the counting strategy rejects recursion,
#: and the point is all three strategies on the *same* stream
PROGRAM = "flat"
STREAMS = ("deletions", "mixed")
STRATEGIES = ("dred", "bf", "counting")
ROUNDS = 10 if QUICK else 30
BATCH = 3
WORKERS = 4
SEED = 41
SCHEDULERS = (
    ["hybrid", "levelbased"] if QUICK else sorted(scheduler_registry())
)


def serve_stream(sched_name: str, stream: str, strategy: str):
    """One full serve; returns (metrics log, plan-cache stats).

    Every (scheduler, strategy) pair rebuilds the workload from the
    same seed, so all serves of a stream see byte-identical updates —
    and must land on byte-identical materializations.
    """
    wl = live_workload(PROGRAM, seed=SEED)
    svc = UpdateStreamService(
        wl.program,
        wl.edb,
        scheduler_registry()[sched_name](),
        workers=WORKERS,
        maintenance=strategy,
        name=f"bench:{sched_name}:{stream}:{strategy}",
    )
    for batches in make_stream(
        wl, stream, rounds=ROUNDS, batch_size=BATCH
    ):
        for delta in batches:
            svc.submit(delta)
        rep = svc.run_round()
        assert rep is None or rep.materialization_ok
    mat = svc.materialization()
    assert mat is not None
    oracle, _ = seminaive_evaluate(wl.program, svc.database())
    assert mat.as_dict() == oracle.as_dict(), (
        sched_name, stream, strategy
    )
    stats = svc.plan_cache.stats()
    return svc.metrics, stats


def test_deletion_streams(benchmark, emit):
    def run():
        out = {}
        for name in SCHEDULERS:
            for stream in STREAMS:
                for strategy in STRATEGIES:
                    out[(name, stream, strategy)] = serve_stream(
                        name, stream, strategy
                    )
        return out

    results = run_once(benchmark, run)

    rows = []
    payload = {
        "schema": 1,
        "quick": QUICK,
        "stream": {
            "program": PROGRAM,
            "kinds": list(STREAMS),
            "rounds": ROUNDS,
            "batch_size": BATCH,
            "workers": WORKERS,
            "seed": SEED,
        },
        "serves": {},
    }
    for (name, stream, strategy), (metrics, stats) in results.items():
        reg = metrics.registry
        cancelled = int(reg.counter("cancelled_ops").value)
        noops = int(reg.counter("noop_rounds").value)
        rps = metrics.rounds_per_second()
        rows.append(
            [name, stream, strategy, f"{rps:.1f}", cancelled, noops,
             stats["relations"]["weighted_derives"]]
        )
        payload["serves"][f"{name}/{stream}/{strategy}"] = {
            "rounds_per_sec": round(rps, 3),
            "cancelled_ops": cancelled,
            "noop_rounds": noops,
            "cache": stats,
        }

    text = render_table(
        ["scheduler", "stream", "strategy", "r/s", "cancelled",
         "noops", "wderives"],
        rows,
        title=(
            f"deletion streams — {PROGRAM}, {ROUNDS} rounds × "
            f"{BATCH} ops, {WORKERS} workers (strategy oracle on"
            + (", quick)" if QUICK else ")")
        ),
    )
    emit("deletions", text)
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")

    # the gate: cancelled insert/retract pairs must measurably skip
    # work on the mixed stream — operations cancelled, whole rounds
    # skipped, and index maintenance on the weighted path
    for key, s in payload["serves"].items():
        _, stream, _ = key.split("/")
        if stream != "mixed":
            continue
        assert s["cancelled_ops"] > 0, (key, s)
        assert s["noop_rounds"] > 0, (key, s)
        assert s["cache"]["relations"]["weighted_derives"] > 0, (key, s)


if __name__ == "__main__":
    args = [a for a in sys.argv[1:] if a != "--quick"]
    if "--quick" in sys.argv[1:]:
        os.environ["REPRO_BENCH_QUICK"] = "1"
    raise SystemExit(
        pytest.main([__file__, "--benchmark-only", "-q", *args])
    )
