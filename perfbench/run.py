#!/usr/bin/env python3
"""Closed-loop serve benchmark for ``repro.runtime.service``.

One client drives one :class:`~repro.runtime.service.UpdateStreamService`
from one process: for each tick it submits that tick's batches, calls
``run_round()``, and only then starts the next tick. The service runs at
its defaults (verify and strict on, plan cache on, columnar storage,
thread executor, hybrid scheduler) with one executor lane; a workload
sets only the shadow ``maintenance`` engine.

Run from the repository root::

    python3 perfbench/run.py --workload tc-drip --seed 1 --trace 0
    python3 perfbench/run.py --workload pt-churn --seed 1 --trace 1
    python3 perfbench/run.py --suite --trace 0 --out base.json
    python3 perfbench/run.py --compare base.json new.json

A single run prints a table of its metrics and, as the last line of
standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` measures the
end-to-end metrics with nothing patched, their times scaled to a
reference host speed that calibration slices between ticks track (see
``NOTES.md``); ``--trace 1`` alternates
untraced and traced blocks of ticks and reports the per-layer metrics of
``BENCHMARK.json``. After the timed loop every run checks the service's
materialization against ``naive_evaluate`` over the service's EDB, and
that EDB against the load generator's own model of it. A failed round or
a failed check makes the run exit 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"

#: executor lanes for every workload. Two lanes plus the coordinator on
#: a 2-vCPU host made rounds about 3.5x more sensitive to CPU contention
#: than one lane, too unsteady to bound (see NOTES.md)
WORKERS = 1
#: cold set-ups per run, each in a forked child of a process that has
#: built nothing yet; setup_s is their median
SETUP_REPS = 15
#: ticks per block when --trace 1 alternates untraced and traced blocks
#: (a multiple of retail-burst's 4-tick burst cycle, so both sides see
#: the same mix)
TRACE_BLOCK = 8

# The host's speed swings by up to 1.7x within seconds (other tenants of
# the machine), and every time moves with it. A fixed slice of
# interpreter work is therefore timed between ticks and around set-ups,
# and the end-to-end times are scaled to the speed at which one slice
# takes CAL_REF_S (see NOTES.md, "Host speed").
#: loop iterations in one calibration slice
CAL_ITERS = 25_000
#: seconds a slice takes at the reference speed
CAL_REF_S = 0.005
#: seconds between calibration slices in the loop
CAL_EVERY = 0.2
#: a tick is scaled by the median slice within this many seconds of it
CAL_WINDOW = 2.0


def _require_program() -> None:
    """Put the program's sources on ``sys.path`` or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"run.py: the program's sources are missing ({SRC}/repro); "
            "run from a full checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _load_spec() -> dict:
    try:
        with open(SPEC_FILE) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"run.py: cannot read {SPEC_FILE}: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _ops(batches) -> int:
    return sum(
        len(s)
        for d in batches
        for s in (*d.insertions.values(), *d.deletions.values())
    )


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_metadata() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT, capture_output=True, text=True, timeout=10,
            )
            sha = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
    }


# ----------------------------------------------------------------------
# one run
@dataclass
class Tick:
    """One measured tick: submit → ``run_round()`` returned."""

    latency: float
    ops: int
    ok: bool
    #: loop time the tick used: generating its batches, the round and
    #: the bookkeeping, not calibration slices
    span: float = 0.0
    #: the round's RoundMetrics (``None`` when it raised)
    metrics: object = None
    #: operations left in the merged delta before effective clamping
    merged_ops: int = 0
    traced: bool = False
    start: float = 0.0
    end: float = 0.0
    error: str | None = None


@dataclass
class RunResult:
    ticks: list[Tick] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    #: calibration slices taken around the set-ups
    setup_cal: list[float] = field(default_factory=list)
    #: (start, duration) of each calibration slice taken in the loop
    cal: list[tuple[float, float]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    checks: dict[str, bool] = field(default_factory=dict)
    layer_rows: list[dict] = field(default_factory=list)
    #: traced round → counts from the executor's RoundOutcome
    outcomes: dict[int, dict] = field(default_factory=dict)
    #: traced round → (plan-cache hits, misses)
    cache: dict[int, tuple[int, int]] = field(default_factory=dict)

    def note_outcome(self, round_id: int, outcome) -> None:
        diffs = outcome.diffs
        self.outcomes[round_id] = {
            "executed": len(diffs),
            "changed": sum(1 for v in diffs.values() if v),
            "overhead": outcome.overhead_s,
            "stall": outcome.stall_s,
            "dispatch_lag": outcome.dispatch_lag_s,
            "prepare": outcome.prepare_s,
        }


def _build(name: str, seed: int):
    from loadgen import make_workload
    from repro.datalog.incremental import Delta
    from repro.runtime.service import UpdateStreamService
    from repro.schedulers import HybridScheduler

    wl = make_workload(name, seed)
    svc = UpdateStreamService(
        wl.program,
        wl.edb,
        HybridScheduler(),
        workers=WORKERS,
        maintenance=wl.maintenance,
        name=name,
    )
    # the cold first round materializes the initial EDB
    svc.submit(Delta())
    rep = svc.run_round()
    if rep is None or not rep.materialization_ok:
        raise RuntimeError(f"{name}: the cold first round failed")
    return wl, svc


def calibration_slice() -> float:
    """Time one fixed slice of interpreter work: tuple hashing, set and
    dict updates and integer arithmetic, as in rule evaluation."""
    t0 = perf_counter()
    seen: set[tuple[int, int]] = set()
    last: dict[int, int] = {}
    acc = 0
    for i in range(CAL_ITERS):
        key = (i & 255, i % 7)
        if key not in seen:
            seen.add(key)
        acc += key[1]
        last[i & 1023] = acc
    return perf_counter() - t0


def _import_program() -> None:
    """Import what set-up uses, so that no timed set-up pays for it."""
    import loadgen  # noqa: F401
    import repro.datalog.incremental  # noqa: F401
    import repro.runtime.service  # noqa: F401
    import repro.schedulers  # noqa: F401


def _forked_setup(name: str, seed: int) -> float:
    """Time one set-up in a forked child of this process.

    The child inherits this process as it is before its own set-up: the
    program imported and nothing built, so every cache a set-up fills,
    process-global ones included, starts empty.
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        code = 1
        try:
            t0 = perf_counter()
            _build(name, seed)
            os.write(w, repr(perf_counter() - t0).encode())
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        raise RuntimeError(f"{name}: a cold set-up failed")
    return float(data)


def _setup(name: str, seed: int, result: RunResult):
    """Time ``SETUP_REPS`` cold set-ups, each in a forked child, then
    build the workload and service the loop drives."""
    _import_program()
    gc.collect()
    for _ in range(SETUP_REPS):
        result.setup_cal.append(calibration_slice())
        result.setup.append(_forked_setup(name, seed))
    return _build(name, seed)


def _tick(svc, batches) -> Tick:
    ops = _ops(batches)
    t0 = perf_counter()
    try:
        for b in batches:
            svc.submit(b)
        rep = svc.run_round()
        t1 = perf_counter()
        ok = rep is not None and rep.materialization_ok
        err = None if ok else "round returned materialization_ok=False"
    except Exception as exc:  # a failed round is counted, not fatal
        t1 = perf_counter()
        rep, ok, err = None, False, f"{type(exc).__name__}: {exc}"
    tick = Tick(t1 - t0, ops, ok, start=t0, end=t1, error=err)
    if rep is not None:
        # keep only the small metrics record; a report holds both sides
        # of the round's materialization
        tick.metrics = rep.metrics
        tick.merged_ops = _ops([rep.delta])
    return tick


def _check(wl, svc, result: RunResult) -> None:
    """Untimed correctness checks after the loop."""
    from repro.datalog.seminaive import naive_evaluate

    mat = svc.materialization()
    edb = svc.database()
    oracle = naive_evaluate(wl.program, edb)
    result.checks["naive_oracle"] = (
        mat is not None and _facts(mat) == _facts(oracle)
    )
    result.checks["edb_mirror"] = _facts(edb) == wl.mirror_dict()


def _facts(db) -> dict:
    return {p: set(rel) for p, rel in db.relations.items() if len(rel)}


def run_once(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    """Set up, drive the closed loop for ``seconds``, then check."""
    from layers import LayerTracer

    result = RunResult()
    wl, svc = _setup(name, seed, result)
    tracer = None
    if trace:
        tracer = LayerTracer(
            maintenance=wl.maintenance,
            on_outcome=result.note_outcome,
        )
    result.cal.append((perf_counter(), calibration_slice()))
    next_cal = perf_counter() + CAL_EVERY
    deadline = perf_counter() + seconds
    n = 0
    while (t0 := perf_counter()) < deadline:
        traced = trace and (n // TRACE_BLOCK) % 2 == 1
        batches = wl.next_tick()
        if traced:
            tracer.round_id = n
            cache = svc.plan_cache
            h0, m0 = cache.hits, cache.misses
            with tracer.installed():
                tick = _tick(svc, batches)
            result.cache[n] = (cache.hits - h0, cache.misses - m0)
            tick.traced = True
        else:
            tick = _tick(svc, batches)
        tick.span = perf_counter() - t0
        result.ticks.append(tick)
        n += 1
        if perf_counter() >= next_cal:
            result.cal.append((perf_counter(), calibration_slice()))
            next_cal = perf_counter() + CAL_EVERY
    result.peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        result.layer_rows = _attribute_ticks(result, tracer)
    _check(wl, svc, result)
    return result


def _attribute_ticks(result: RunResult, tracer) -> list[dict]:
    from layers import attribute

    by_round: dict[int, list] = {}
    for s in tracer.spans:
        by_round.setdefault(s.round_id, []).append(s)
    rows = []
    for i, tick in enumerate(result.ticks):
        if not tick.traced:
            continue
        a = attribute(by_round.get(i, []), tick.start, tick.end)
        rows.append({"round": i, "attribution": a, "tick": tick})
    return rows


# ----------------------------------------------------------------------
# metrics
def _p90(xs: list[float]) -> float:
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


def speed_factors(result: RunResult) -> list[float]:
    """Per tick, ``CAL_REF_S`` over the median calibration slice taken
    within ``CAL_WINDOW`` seconds of the tick's start (over every slice
    of the run when none is that close)."""
    starts = [c[0] for c in result.cal]
    out = []
    for t in result.ticks:
        lo = bisect_left(starts, t.start - CAL_WINDOW)
        hi = bisect_right(starts, t.start + CAL_WINDOW)
        near = [d for _, d in result.cal[lo:hi]] or [
            d for _, d in result.cal
        ]
        out.append(CAL_REF_S / statistics.median(near))
    return out


def end_to_end(result: RunResult, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics; times scaled to the reference speed
    unless ``scaled`` is false."""
    if scaled:
        factors = speed_factors(result)
        setup_factor = CAL_REF_S / statistics.median(result.setup_cal)
    else:
        factors = [1.0] * len(result.ticks)
        setup_factor = 1.0
    lat = [t.latency * f * 1e3 for t, f in zip(result.ticks, factors)]
    busy = sum(t.span * f for t, f in zip(result.ticks, factors))
    ops = sum(t.ops for t in result.ticks)
    return {
        "round_p50_ms": statistics.median(lat),
        "round_p90_ms": _p90(lat),
        "updates_per_s": ops / busy,
        "setup_s": statistics.median(result.setup) * setup_factor,
        "peak_rss_mb": result.peak_rss_mb,
    }


def _med(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _self_time_metrics() -> dict[str, str]:
    """Per-layer ``<span>_ms`` metric → the span whose self time it is."""
    from layers import ENGINE_POINTS, LAYER_POINTS

    return {f"{name}_ms": name for name in [*LAYER_POINTS, *ENGINE_POINTS]}


def per_layer(result: RunResult) -> dict[str, float]:
    """Per-layer metrics from the traced ticks (medians per round)."""
    rows = result.layer_rows
    if not rows:
        raise RuntimeError("no traced rounds; raise --seconds")
    out: dict[str, float] = {}
    for metric, span in _self_time_metrics().items():
        out[metric] = _med(
            r["attribution"].self_times.get(span, 0.0) * 1e3 for r in rows
        )
    done = [r["tick"] for r in rows if r["tick"].metrics is not None]
    ms = [t.metrics for t in done]
    submitted = sum(r["tick"].ops for r in rows)
    effective = sum(t.merged_ops - t.metrics.cancelled_ops for t in done)
    outs = [result.outcomes[r["round"]] for r in rows
            if r["round"] in result.outcomes]
    hits = sum(result.cache[r["round"]][0] for r in rows)
    misses = sum(result.cache[r["round"]][1] for r in rows)
    traced = [r["tick"].latency * 1e3 for r in rows]
    untraced = [t.latency * 1e3 for t in result.ticks if not t.traced]
    out.update({
        "service.batches_per_round": _med(m.batches_coalesced for m in ms),
        "zset.effective_frac": _ratio(effective, submitted),
        "seminaive.calls_per_round": _med(
            r["attribution"].calls.get("seminaive.evaluate", 0)
            for r in rows
        ),
        "plancache.hit_frac": _ratio(hits, hits + misses),
        "compile.dag_nodes": _med(m.n_nodes for m in ms),
        "compile.active_nodes": _med(m.n_active for m in ms),
        "units.executed": _med(o["executed"] for o in outs),
        "units.changed_frac": _ratio(
            sum(o["changed"] for o in outs),
            sum(o["executed"] for o in outs),
        ),
        "columnar.probes": _med(m.columnar_probes for m in ms),
        "columnar.builds": _med(m.columnar_builds for m in ms),
        "executor.overhead_ms": _med(o["overhead"] * 1e3 for o in outs),
        "executor.stall_ms": _med(o["stall"] * 1e3 for o in outs),
        "executor.dispatch_lag_ms": _med(
            o["dispatch_lag"] * 1e3 for o in outs
        ),
        "executor.prepare_ms": _med(o["prepare"] * 1e3 for o in outs),
        "executor.utilization": _med(m.utilization for m in ms),
        "scheduler.ops": _med(m.scheduler_ops for m in ms),
        "scheduler.precompute_ops": _med(m.precompute_ops for m in ms),
        "round.latency_ms": statistics.median(traced),
        "round.changed_facts": _med(m.changed_facts for m in ms),
        "round.unattributed_ms": _med(
            r["attribution"].unattributed * 1e3 for r in rows
        ),
        "round.unattributed_frac": _med(
            r["attribution"].unattributed / r["attribution"].latency
            for r in rows
        ),
        "trace_overhead_frac": (
            statistics.median(traced) / statistics.median(untraced) - 1.0
            if untraced else 0.0
        ),
    })
    return out


def reconciliation(result: RunResult) -> dict[str, float]:
    """How exactly the traced rounds' parts add up to their latency."""
    rows = result.layer_rows
    return {
        "rounds": len(rows),
        "max_residual_ms": max(
            abs(r["attribution"].residual) * 1e3 for r in rows
        ),
        "escaped_ms": sum(r["attribution"].escaped * 1e3 for r in rows),
    }


def layer_table(result: RunResult) -> str:
    """Mean and median self time per layer over the traced rounds; the
    means add up to the mean latency exactly."""
    rows = result.layer_rows
    n = len(rows)
    lines = [f"{'layer':<24}{'mean ms':>10}{'median ms':>11}{'share':>8}"]
    lat = sum(r["attribution"].latency for r in rows) / n * 1e3
    total = 0.0
    names = [*_self_time_metrics().values(), "(unattributed)"]
    for name in names:
        if name == "(unattributed)":
            vals = [r["attribution"].unattributed * 1e3 for r in rows]
        else:
            vals = [r["attribution"].self_times.get(name, 0.0) * 1e3
                    for r in rows]
        mean = sum(vals) / n
        total += mean
        lines.append(
            f"{name:<24}{mean:>10.3f}{statistics.median(vals):>11.3f}"
            f"{mean / lat:>8.1%}"
        )
    lines.append(f"{'sum of parts':<24}{total:>10.3f}")
    lines.append(f"{'round latency':<24}{lat:>10.3f}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# entry points
def single_run(args) -> int:
    spec = _load_spec()
    units = {
        m["name"]: m["unit"]
        for m in spec["end_to_end"] + spec["per_layer"]
    }
    result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted = len(result.ticks)
    failed = sum(1 for t in result.ticks if not t.ok)
    checks_ok = all(result.checks.values())
    if not checks_ok:
        # a wrong final materialization fails the whole run
        failed = attempted
    error_rate = failed / attempted if attempted else 1.0
    correct = attempted > 0 and failed == 0 and checks_ok
    raw = end_to_end(result, scaled=False)
    if args.trace:
        values = per_layer(result)
        declared = [m["name"] for m in spec["per_layer"]]
    else:
        values = end_to_end(result)
        declared = [m["name"] for m in spec["end_to_end"]]
    missing = set(declared) - set(values)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    metrics = {
        name: {"value": values[name], "unit": units[name]}
        for name in declared
    }

    lat = [t.latency * 1e3 for t in result.ticks]
    p90 = _p90(lat)
    beyond_p90 = sum(1 for x in lat if x > p90)
    cal_ms = statistics.median(d for _, d in result.cal) * 1e3
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  rounds {attempted}  "
          f"rounds beyond p90 {beyond_p90}  "
          f"calibration slice {cal_ms:.3f} ms (reference "
          f"{CAL_REF_S * 1e3:g} ms)")
    if not args.trace:
        print(f"  {'':<28}{'scaled':>14} {'':<6}{'as timed':>14}")
    for name in declared:
        print(f"  {name:<28}{values[name]:>14.4f} {units[name]:<6}"
              + (f"{raw[name]:>14.4f}" if name in raw else ""))
    print(f"  {'error_rate':<28}{error_rate:>14.4f} fraction")
    for check, ok in result.checks.items():
        print(f"  check {check}: {'ok' if ok else 'FAILED'}")
    for t in result.ticks:
        if t.error:
            print(f"  failed round: {t.error}")
            break
    if args.trace:
        print(layer_table(result))
        rec = reconciliation(result)
        print(f"  reconciliation over {rec['rounds']} traced rounds: "
              f"max |latency - parts| {rec['max_residual_ms']:.6f} ms, "
              f"span time outside its round {rec['escaped_ms']:.6f} ms")
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.out:
        record = {
            "host": host_metadata(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "error_rate": error_rate,
            "checks": result.checks,
            "calibration_ms": cal_ms,
            "as_timed": raw,
            **line,
        }
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=2)
    print(json.dumps(line))
    return 0 if correct else 1


def suite(args) -> int:
    """Several runs per workload, each in its own process; writes the
    per-run results and each metric's median and quartiles."""
    from stats import summarize

    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    out = {
        "host": host_metadata(),
        "seconds": seconds,
        "trace": args.trace,
        "first_seed": args.seed,
        "workloads": {},
    }
    status = 0
    for name in names:
        runs = []
        for k in range(args.runs):
            seed = args.seed + k
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            try:
                line = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                sys.stderr.write(proc.stdout + proc.stderr)
                raise SystemExit(f"run.py: {name} seed {seed} printed "
                                 "no result") from None
            if proc.returncode != 0 or not line["correct"]:
                status = 1
            runs.append({"seed": seed, **line})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={v['value']:.4g}" for m, v in line["metrics"].items()
            ), flush=True)
        metric_names = list(runs[0]["metrics"])
        out["workloads"][name] = {
            "runs": runs,
            "summary": {
                m: {
                    "unit": runs[0]["metrics"][m]["unit"],
                    **summarize([r["metrics"][m]["value"] for r in runs]),
                }
                for m in metric_names
            },
        }
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"{'workload':<14}{'metric':<26}{'unit':<10}{'median':>12}"
          f"{'q1':>12}{'q3':>12}{'spread':>8}{'bound':>7}")
    for name, w in out["workloads"].items():
        for m, s in w["summary"].items():
            b = bounds.get(m)
            print(f"{name:<14}{m:<26}{s['unit']:<10}{s['median']:>12.4f}"
                  f"{s['q1']:>12.4f}{s['q3']:>12.4f}{s['spread']:>8.3f}"
                  f"{'' if b is None else format(b, '.2f'):>7}")
        failed = sum(r["failed"] for r in w["runs"])
        attempted = sum(r["attempted"] for r in w["runs"])
        w["error_rate"] = failed / attempted
        print(f"{name:<14}{'error_rate':<26}{'fraction':<10}"
              f"{w['error_rate']:>12.4f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=2)
    return status


def compare(args) -> int:
    from stats import verdict

    spec = _load_spec()
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    with open(args.compare[0]) as fh:
        base = json.load(fh)
    with open(args.compare[1]) as fh:
        new = json.load(fh)
    worse = 0
    print(f"{'workload':<14}{'metric':<28}{'base':>12}{'new':>12}"
          f"{'change':>9}  verdict")
    for name, bw in base["workloads"].items():
        nw = new["workloads"].get(name)
        if nw is None:
            print(f"{name:<14}(missing from {args.compare[1]})")
            continue
        for m in bw["summary"]:
            if m not in nw["summary"] or m not in specs:
                continue
            b = [r["metrics"][m]["value"] for r in bw["runs"]]
            n = [r["metrics"][m]["value"] for r in nw["runs"]]
            v, change = verdict(b, n, specs[m]["better"],
                                specs[m].get("bound"))
            if v == "worse" and "bound" in specs[m]:
                worse += 1
            print(f"{name:<14}{m:<28}{statistics.median(b):>12.4f}"
                  f"{statistics.median(n):>12.4f}{change:>+9.1%}  {v}")
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the results as JSON here")
    parser.add_argument("--suite", action="store_true",
                        help="run every workload --runs times")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="verdict per workload and metric")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args)
    if args.suite:
        return suite(args)
    if not args.workload:
        parser.error("--workload is required for a single run")
    _require_program()
    spec = _load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {names}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
