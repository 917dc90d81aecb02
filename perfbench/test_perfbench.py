"""Tests of the serve benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json

import pytest

import layers
import run
from layers import LayerTracer, Span, attribute
from loadgen import WORKLOADS, make_workload
from stats import summarize, verdict

SPEC = json.loads(run.SPEC_FILE.read_text())
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]


def test_declared_workloads_match_the_load_generator():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_ticks_are_seeded_and_keep_the_edb_size(name):
    a, b, c = (make_workload(name, s) for s in (5, 5, 6))
    size = sum(len(f) for f in a.mirror.values())
    ticks_a = [a.next_tick() for _ in range(40)]
    ticks_b = [b.next_tick() for _ in range(40)]
    ticks_c = [c.next_tick() for _ in range(40)]
    assert ticks_a == ticks_b
    assert ticks_a != ticks_c
    assert sum(len(f) for f in a.mirror.values()) == size


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_each_workload(name, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    res = run.run_once(name, seed=3, seconds=0.05, trace=False)
    assert res.ticks and all(t.ok for t in res.ticks)
    assert res.checks == {"naive_oracle": True, "edb_mirror": True}
    e2e = run.end_to_end(res)
    assert set(e2e) == set(END_TO_END)
    assert all(v > 0 for v in e2e.values())


def test_every_timed_set_up_is_cold(monkeypatch):
    from repro.datalog import columnar

    real_build = run._build

    def build(name, seed):
        # compiled rule plans left over from an earlier build would make
        # this set-up warm; the forked child then exits 1
        assert not columnar._RULE_PLANS, "warm set-up"
        return real_build(name, seed)

    # the run's process as it starts: the process-global cache empty
    monkeypatch.setattr(columnar, "_RULE_PLANS", {})
    monkeypatch.setattr(run, "SETUP_REPS", 3)
    monkeypatch.setattr(run, "_build", build)
    res = run.run_once("retail-burst", seed=3, seconds=0.01, trace=False)
    assert len(res.setup) == 3 and all(t > 0 for t in res.setup)
    assert columnar._RULE_PLANS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_smoke_reports_every_layer_and_reconciles(name, monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(run, "TRACE_BLOCK", 1)
    res = run.run_once(name, seed=3, seconds=0.6, trace=True)
    assert res.checks == {"naive_oracle": True, "edb_mirror": True}
    values = run.per_layer(res)
    assert set(PER_LAYER) <= set(values)
    rec = run.reconciliation(res)
    assert rec["rounds"] >= 1
    assert rec["max_residual_ms"] < 1e-6
    assert rec["escaped_ms"] == 0.0
    for row in res.layer_rows:
        a = row["attribution"]
        assert a.latency == pytest.approx(
            sum(a.self_times.values()) + a.unattributed, abs=1e-9
        )
        # every traced round compiled through the plan cache
        assert a.calls.get("plancache.compile") == 1


def test_naive_oracle_catches_a_corrupted_materialization(
    monkeypatch, capsys
):
    from repro.runtime.service import UpdateStreamService

    honest = UpdateStreamService.materialization

    def corrupted(self):
        db = honest(self).copy()
        db.add_fact("path", (-1, -2))
        return db

    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(UpdateStreamService, "materialization", corrupted)
    code = run.main(["--workload", "tc-drip", "--seed", "2",
                     "--seconds", "0.05", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] >= 1


def test_failed_round_counts_against_attempted(monkeypatch, capsys):
    from repro.runtime.service import UpdateStreamService

    real = UpdateStreamService.run_round
    calls = {"n": 0}

    def flaky(self, *a, **kw):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("injected")
        return real(self, *a, **kw)

    monkeypatch.setattr(run, "SETUP_REPS", 1)
    monkeypatch.setattr(UpdateStreamService, "run_round", flaky)
    code = run.main(["--workload", "retail-burst", "--seed", "2",
                     "--seconds", "0.2", "--trace", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["failed"] == 1 and last["attempted"] > 1


def test_times_are_scaled_by_the_calibration_slices_near_them():
    ref = run.CAL_REF_S
    res = run.RunResult(setup=[0.2] * 3, setup_cal=[2 * ref] * 3)
    # the host runs at half speed for 10 s, then at full speed
    res.cal = [(float(t), 2 * ref if t < 10 else ref) for t in range(20)]
    for start in (0.5, 1.5, 2.5, 3.5, 4.5, 15.5, 16.5, 17.5, 18.5, 19.5):
        lat = 0.1 if start < 10 else 0.05
        res.ticks.append(run.Tick(lat, 2, True, span=lat, start=start))
    assert run.speed_factors(res) == [0.5] * 5 + [1.0] * 5
    e2e = run.end_to_end(res)
    assert e2e["round_p50_ms"] == pytest.approx(50.0)
    assert e2e["round_p90_ms"] == pytest.approx(50.0)
    assert e2e["updates_per_s"] == pytest.approx(20 / 0.5)
    assert e2e["setup_s"] == pytest.approx(0.1)
    timed = run.end_to_end(res, scaled=False)
    assert timed["round_p50_ms"] == pytest.approx(75.0)
    assert timed["setup_s"] == pytest.approx(0.2)


# ----------------------------------------------------------------------
# wrappers and attribution
def _span(i, name, start, end, parent=None):
    return Span(i, name, start, end, parent, 0)


def test_attribution_of_nested_spans():
    spans = [
        _span(1, "compile", 1.0, 5.0),
        _span(2, "seminaive", 2.0, 4.0, parent=1),
        _span(3, "verify", 6.0, 7.0),
    ]
    a = attribute(spans, 0.0, 10.0)
    assert a.self_times == pytest.approx(
        {"compile": 2.0, "seminaive": 2.0, "verify": 1.0}
    )
    assert a.unattributed == pytest.approx(5.0)
    assert a.residual == pytest.approx(0.0)
    assert a.escaped == 0.0


def test_parallel_children_count_their_overlap_once():
    spans = [
        _span(1, "executor", 0.0, 10.0),
        _span(2, "unit", 1.0, 6.0, parent=1),
        _span(3, "unit", 4.0, 8.0, parent=1),
    ]
    a = attribute(spans, 0.0, 10.0)
    assert a.self_times == pytest.approx({"executor": 3.0, "unit": 7.0})
    assert a.unattributed == 0.0
    assert a.calls == {"executor": 1, "unit": 2}


def test_span_outside_its_round_is_reported_as_escaped():
    a = attribute([_span(1, "late", 9.0, 12.0)], 0.0, 10.0)
    assert a.self_times == pytest.approx({"late": 1.0})
    assert a.escaped == pytest.approx(2.0)
    assert a.residual == pytest.approx(0.0)


def test_tracer_restores_every_patched_attribute():
    import importlib

    def current():
        out = {}
        for points in layers.LAYER_POINTS.values():
            for module, path in points:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                out[(module, path)] = vars(owner).get(attr)
        return out

    from repro.datalog.bf import BackwardForwardEngine

    before = current()
    assert "apply" not in vars(BackwardForwardEngine)
    tracer = LayerTracer(maintenance="bf")
    with tracer.installed():
        assert current() != before
        assert "apply" in vars(BackwardForwardEngine)
    assert current() == before
    assert "apply" not in vars(BackwardForwardEngine)


def test_worker_thread_spans_take_the_main_thread_parent():
    import threading

    tracer = LayerTracer()
    outer = tracer._wrap("outer", lambda: t.start() or t.join())
    inner = tracer._wrap("inner", lambda: None)
    t = threading.Thread(target=inner)
    outer()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].id


# ----------------------------------------------------------------------
# summaries and verdicts
def test_summary_quartiles_follow_statistics_quantiles():
    s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["median"], s["q1"], s["q3"]) == (3.0, 1.5, 4.5)
    assert s["spread"] == pytest.approx(1.0)


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(base, [x * 1.3 for x in base], "lower", 0.1)[0] == "worse"
    assert verdict(base, [x * 0.7 for x in base], "lower", 0.1)[0] == "better"
    assert verdict(base, [x * 1.3 for x in base], "higher", 0.1)[0] == (
        "better"
    )
    assert verdict(base, [x * 1.02 for x in base], "lower", 0.1)[0] == (
        "unchanged"
    )
    noisy = [50.0, 150.0, 100.0, 60.0, 140.0]
    assert verdict(base, noisy, "lower", 0.1)[0] == "unresolved"
    # wide spread, but every run of one side beats every run of the other
    assert verdict([1.0, 2.0, 3.0], [10.0, 20.0, 30.0], "lower", 0.1)[0] == (
        "worse"
    )
    assert verdict([5.0, 5.0], [5.0, 5.0], "lower", None)[0] == "unchanged"
    assert verdict([5.0, 6.0], [5.5, 5.8], "lower", None)[0] == "unresolved"
