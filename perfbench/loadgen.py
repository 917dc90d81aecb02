"""Frozen load generator for the serve benchmark.

Each workload is a fixed base database from one of the shipped workload
factories (called with explicit arguments, so a change to a factory's
defaults cannot silently change a workload) plus a seeded stream of
update ticks generated here. The stream logic deliberately does not use
``repro.runtime.workloads_live.make_stream``: the benchmark must keep
measuring the same inputs when that module changes.

A tick is the list of batches one client submits before it calls
``run_round()``. Every stream keeps |EDB| constant and the derived
closure stationary over a run, so a run's median does not drift with
its length:

* ``tc-drip`` retracts only spur edges the stream inserted, so the base
  chain and its shortcuts survive and the closure stays near 3.8k facts;
* ``retail-burst`` makes only count-preserving edits (moves and swaps)
  on the leaf relations and never touches the category or region trees,
  so no cycle can appear;
* ``pt-churn`` swaps statements between a fixed set of 16 candidates
  (8 present at a time) and never touches the base statements; its
  churn pairs insert absent facts and retract them in the same tick.

The base database does not depend on the seed, so |DB| is identical on
every seed; the seed drives only the stream. See ``NOTES.md`` for why
each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.datalog.ast import Program
from repro.datalog.database import Database
from repro.datalog.incremental import Delta
from repro.workloads.datalog_workloads import (
    points_to,
    retail_rollup,
    transitive_closure,
)

__all__ = ["WORKLOADS", "Workload", "make_workload"]


@dataclass
class Workload:
    """A program, its initial EDB and a seeded tick generator.

    ``mirror`` is the generator's model of the EDB after every tick it
    has produced; the benchmark compares it with the service's EDB at
    the end of a run, so a lost or misapplied update fails the run.
    """

    #: shadow maintenance strategy the service runs (``None``: none)
    maintenance: str | None
    program: Program
    edb: Database
    next_tick: Callable[[], list[Delta]]
    mirror: dict[str, set[tuple]]

    def mirror_dict(self) -> dict[str, set[tuple]]:
        return {p: set(f) for p, f in self.mirror.items() if f}


def _mirror_of(edb: Database) -> dict[str, set[tuple]]:
    return {p: set(rel) for p, rel in edb.relations.items()}


def _pick(rng: np.random.Generator, items: list):
    return items[int(rng.integers(0, len(items)))]


# ----------------------------------------------------------------------
# tc-drip
TC_NODES = 80
TC_SHORTCUTS = 30
TC_SPURS = 16


def _tc_drip(seed: int) -> Workload:
    program, edb, _ = transitive_closure(
        n=TC_NODES, extra_edges=TC_SHORTCUTS, seed=0
    )
    rng = np.random.default_rng(seed)
    # spur edges point from a chain node to a leaf outside the chain;
    # each leaf has one in-edge, so a spur (c, leaf) adds or removes
    # exactly c + 1 path facts. Leaves are recycled so the intern pool
    # stays bounded.
    free = list(range(TC_NODES, TC_NODES + 2 * TC_SPURS))
    spurs: list[tuple[int, int]] = []

    def new_spur() -> tuple[int, int]:
        leaf = free.pop(int(rng.integers(0, len(free))))
        return (int(rng.integers(0, TC_NODES)), leaf)

    for _ in range(TC_SPURS):
        spur = new_spur()
        edb.add_fact("edge", spur)
        spurs.append(spur)
    mirror = _mirror_of(edb)
    edges = mirror["edge"]

    def tick() -> list[Delta]:
        old = spurs.pop(int(rng.integers(0, len(spurs))))
        new = new_spur()
        free.append(old[1])
        spurs.append(new)
        edges.discard(old)
        edges.add(new)
        return [Delta().delete("edge", old).insert("edge", new)]

    return Workload(None, program, edb, tick, mirror)


# ----------------------------------------------------------------------
# retail-burst
RETAIL_PRODUCTS = 40
RETAIL_STORES = 12
BURST_EVERY = 4
BURST_BATCHES = 5


def _retail_burst(seed: int) -> Workload:
    program, edb, _ = retail_rollup(
        n_products=RETAIL_PRODUCTS, n_stores=RETAIL_STORES, seed=0
    )
    rng = np.random.default_rng(seed)
    m = _mirror_of(edb)
    n_cats = len(m["subcat"]) + 1
    n_regions = len(m["subregion"]) + 1
    cat_of = dict(m["product_cat"])
    region_of = dict(m["store_region"])
    products = sorted(cat_of)
    stores = sorted(region_of)

    def move(pred: str, owner: dict, key: str, n_targets: int) -> Delta:
        old = owner[key]
        new = (old + 1 + int(rng.integers(0, n_targets - 1))) % n_targets
        owner[key] = new
        m[pred].discard((key, old))
        m[pred].add((key, new))
        return Delta().delete(pred, (key, old)).insert(pred, (key, new))

    def swap(pred: str, candidates: list[tuple]) -> Delta:
        present = sorted(m[pred])
        absent = [f for f in candidates if f not in m[pred]]
        out, into = _pick(rng, present), _pick(rng, absent)
        m[pred].discard(out)
        m[pred].add(into)
        return Delta().delete(pred, out).insert(pred, into)

    clear_cands = [(p,) for p in products]
    assort_cands = [
        (c, r) for c in range(n_cats) for r in range(n_regions)
    ]

    def batch() -> Delta:
        u = rng.random()
        if u < 0.4:
            return move("product_cat", cat_of, _pick(rng, products), n_cats)
        if u < 0.6:
            return move(
                "store_region", region_of, _pick(rng, stores), n_regions
            )
        if u < 0.8:
            return swap("clearance", clear_cands)
        return swap("assort", assort_cands)

    count = [0]

    def tick() -> list[Delta]:
        count[0] += 1
        n = BURST_BATCHES if count[0] % BURST_EVERY == 0 else 1
        return [batch() for _ in range(n)]

    return Workload(None, program, edb, tick, m)


# ----------------------------------------------------------------------
# pt-churn
PT_VARS = 40
PT_STMTS = 100
#: statements the stream may add or retract; drawn once, independent of
#: the seed, so every seed samples the same population of databases
PT_CANDIDATES = 16
#: candidates present at any time
PT_POOL = 8
PT_CHURN = 2
PT_KINDS = ("copy", "load", "store")


def _pt_churn(seed: int) -> Workload:
    program, edb, _ = points_to(n_vars=PT_VARS, n_stmts=PT_STMTS, seed=0)
    m = _mirror_of(edb)
    for kind in PT_KINDS:
        m.setdefault(kind, set())

    def statement(rng: np.random.Generator) -> tuple[str, tuple]:
        kind = PT_KINDS[int(rng.integers(0, len(PT_KINDS)))]
        a = f"v{int(rng.integers(0, PT_VARS))}"
        b = f"v{int(rng.integers(0, PT_VARS))}"
        return kind, (a, b)

    fixed = np.random.default_rng(0)
    candidates: list[tuple[str, tuple]] = []
    while len(candidates) < PT_CANDIDATES:
        kind, fact = statement(fixed)
        if fact not in m[kind] and (kind, fact) not in candidates:
            candidates.append((kind, fact))
    rng = np.random.default_rng(seed)
    order = [int(i) for i in rng.permutation(PT_CANDIDATES)]
    present = [candidates[i] for i in order[:PT_POOL]]
    absent = [candidates[i] for i in order[PT_POOL:]]
    for kind, fact in present:
        edb.add_fact(kind, fact)
        m[kind].add(fact)

    def churn_fact() -> tuple[str, tuple]:
        while True:
            kind, fact = statement(rng)
            if fact not in m[kind] and (kind, fact) not in candidates:
                return kind, fact

    def tick() -> list[Delta]:
        real = Delta()
        out = [present.pop(int(rng.integers(0, len(present))))
               for _ in range(2)]
        into = [absent.pop(int(rng.integers(0, len(absent))))
                for _ in range(2)]
        for kind, fact in out:
            real.delete(kind, fact)
            m[kind].discard(fact)
        for kind, fact in into:
            real.insert(kind, fact)
            m[kind].add(fact)
        present.extend(into)
        absent.extend(out)
        ins, dels = Delta(), Delta()
        for _ in range(PT_CHURN):
            kind, fact = churn_fact()
            ins.insert(kind, fact)
            dels.delete(kind, fact)
        return [real, ins, dels]

    return Workload("bf", program, edb, tick, m)


#: workload name → the function that makes it, in the order the
#: benchmark declares them
WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "tc-drip": _tc_drip,
    "retail-burst": _retail_burst,
    "pt-churn": _pt_churn,
}


def make_workload(name: str, seed: int) -> Workload:
    """Build workload ``name``; the same seed gives the same ticks."""
    try:
        make = WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    return make(seed)
