"""Compile a Datalog update into a computation-DAG job trace.

This closes the loop the paper describes: *"The materialization of the
recursive rules of a Datalog program is represented as a directed
acyclic graph"* whose nodes are tasks and predicate nodes (Figure 1),
and an update to the base data activates some of them.

Construction
------------
Two from-scratch semi-naive materializations are recorded — one on the
old EDB, one on the updated EDB. Their union unrolls the program's
dataflow into the static DAG ``G``:

* ``("edb", p)`` — a source node per base predicate;
* ``("task", si, k, ri, pos)`` — the rule instance evaluated at
  iteration ``k`` of stratum ``si`` (``pos`` is the Δ-restricted body
  position, None at iteration 0);
* ``("pred", p, si, k)`` — the accumulated state of predicate ``p``
  after iteration ``k`` — the "predicate nodes used to collect inputs
  and outputs" of Figure 1 (zero work, ``is_task=False``).

Edges wire each task to the predicate states it reads and writes, with
pass-through edges chaining successive states of the same predicate.

Activation
----------
A node's realized output *changed* iff the recorded value differs
between the two materializations: for an EDB node, the update touches
it; for a task, its join produced a different fact set (the recorded
output is a pure function of the task's inputs); for a predicate-state
node, the accumulated relation differs. Every out-edge of a changed
node carries a change flag, and the updated EDB nodes are the initial
tasks — :func:`repro.tasks.activation.propagate_changes` then reveals
exactly the re-execution the paper's model prescribes, including
activated tasks whose output turns out unchanged (they run but stop
the cascade).

Task work is ``work_per_derivation × (1 + |join output|)``, so heavy
joins dominate the schedule the way they dominate real maintenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..dag.builder import DagBuilder
from ..tasks.model import ExecutionModel
from ..tasks.trace import JobTrace
from .ast import Program
from .database import Database
from .depgraph import DependencyGraph
from .incremental import Delta
from .seminaive import EvaluationTrace, _ensure_relations

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..verify.program import ProgramAnalysis

__all__ = [
    "compile_update",
    "build_compiled_update",
    "CompiledUpdate",
    "live_edb_predicates",
    "with_program_schema",
]


def live_edb_predicates(edb_old: Database, edb_new: Database) -> set[str]:
    """Predicates holding at least one fact on either side of the round.

    The input to :meth:`ProgramAnalysis.prunable_rules` — a rule is only
    prunable when it cannot fire against *both* EDB snapshots, since the
    compiled round materializes both sides.
    """
    return {
        p
        for db in (edb_old, edb_new)
        for p, rel in db.relations.items()
        if len(rel)
    }


def with_program_schema(db: Database, program: Program) -> Database:
    """``db`` with an (empty) relation for every program predicate.

    Pruned compiles evaluate a program that no longer mentions some
    predicates; mirroring the evaluator's ``_ensure_relations`` against
    the *full* program on the EDB keeps the materialization's relation
    keys — and the plan cache's schema fingerprint — byte-identical to
    the unpruned path. Returns ``db`` itself when nothing is missing,
    so steady-state rounds keep EDB identity (and the cache's fast
    equality path)."""
    mentioned = program.predicates()
    if mentioned <= set(db.relations):
        return db
    out = db.copy()
    _ensure_relations(program, out)
    return out


def _usable_analysis(
    program: Program, analysis: "ProgramAnalysis | None"
) -> "ProgramAnalysis | None":
    """Guard against an analysis computed for a different program."""
    if analysis is None:
        return None
    if analysis.program is program or repr(analysis.program) == repr(
        program
    ):
        return analysis
    return None


@dataclass
class CompiledUpdate:
    """The job trace plus the evaluation artifacts behind it.

    ``node_keys[i]`` is the builder key of DAG node ``i`` — an
    ``("edb", p)``, ``("task", si, k, ri, pos)``, or ``("pred", p, si,
    k)`` tuple. Together with ``program`` and the two EDB snapshots it
    lets :mod:`repro.datalog.units` rebuild every node as a *runnable*
    unit of work, so a compiled round can be executed for real instead
    of simulated.
    """

    trace: JobTrace
    db_old: Database
    db_new: Database
    eval_old: EvaluationTrace
    eval_new: EvaluationTrace
    program: Program
    edb_old: Database
    edb_new: Database
    node_keys: list


def _cumulative_states(
    program: Program,
    ev: EvaluationTrace,
    edb: Database,
) -> dict[tuple, frozenset]:
    """State of each predicate after each (stratum, iteration).

    Key ``(p, si, k)`` → frozen set of facts. Iteration −1 denotes the
    state a stratum starts from (facts from earlier strata / EDB).
    """
    rules = program.proper_rules
    current: dict[str, set] = {
        p: set(rel) for p, rel in edb.relations.items()
    }
    for fact_rule in program.facts:
        current.setdefault(fact_rule.head.predicate, set()).add(
            tuple(t.value for t in fact_rule.head.terms)  # type: ignore[union-attr]
        )
    states: dict[tuple, frozenset] = {}
    for si, stratum in enumerate(ev.strata):
        for p in stratum:
            states[(p, si, -1)] = frozenset(current.get(p, set()))
        for k, rec in enumerate(ev.iterations[si]):
            for (ri, _pos), produced in rec.items():
                head = rules[ri].head.predicate
                current.setdefault(head, set()).update(produced)
            for p in stratum:
                states[(p, si, k)] = frozenset(current.get(p, set()))
    return states


def compile_update(
    program: Program,
    edb_old: Database,
    delta: Delta,
    work_per_derivation: float = 1e-3,
    name: str = "datalog-update",
    analysis: "ProgramAnalysis | None" = None,
) -> CompiledUpdate:
    """Compile ``(program, edb_old, delta)`` into a schedulable trace.

    A one-shot compile through a fresh
    :class:`~repro.datalog.plancache.CompiledProgramCache`: with no
    committed baseline it evaluates both sides, exactly as every cache
    miss does. When ``analysis`` (a
    :class:`~repro.verify.program.ProgramAnalysis` of ``program``) is
    supplied, rules the analyzer proves can never fire against either
    EDB snapshot are pruned before DAG construction, without changing
    either materialization.
    """
    # plancache imports this module for build_compiled_update
    from .plancache import CompiledProgramCache

    return CompiledProgramCache(program, analysis=analysis).compile(
        program,
        edb_old,
        delta,
        work_per_derivation=work_per_derivation,
        name=name,
    )


def build_compiled_update(
    program: Program,
    edb_old: Database,
    edb_new: Database,
    db_old: Database,
    db_new: Database,
    ev_old: EvaluationTrace,
    ev_new: EvaluationTrace,
    touched: set[str],
    work_per_derivation: float = 1e-3,
    name: str = "datalog-update",
    states_old: dict[tuple, frozenset] | None = None,
    states_new: dict[tuple, frozenset] | None = None,
) -> CompiledUpdate:
    """Unroll two recorded materializations into a schedulable trace.

    The back half of :meth:`CompiledProgramCache.compile
    <repro.datalog.plancache.CompiledProgramCache.compile>`, which
    reuses the previous round's *new* side as this round's *old* side
    instead of re-evaluating it when it can. ``states_old``/``states_new``
    accept precomputed :func:`_cumulative_states` tables (the cache
    carries them across rounds); when omitted they are computed here.
    """
    if ev_old.strata != ev_new.strata:  # pragma: no cover - depgraph is static
        raise AssertionError("stratification must not depend on the data")

    depgraph = DependencyGraph(program)
    strata = depgraph.stratify()
    rules = program.proper_rules
    recursive = depgraph.recursive_predicates()
    if states_old is None:
        states_old = _cumulative_states(program, ev_old, edb_old)
    if states_new is None:
        states_new = _cumulative_states(program, ev_new, edb_new)

    stratum_of: dict[str, int] = {}
    for si, comp in enumerate(strata):
        for p in comp:
            stratum_of[p] = si

    b = DagBuilder()
    edb_preds = sorted(program.edb_predicates())
    for p in edb_preds:
        b.node(("edb", p), f"edb:{p}")

    n_iters = [
        max(len(ev_old.iterations[si]), len(ev_new.iterations[si]))
        for si in range(len(strata))
    ]

    edb_set = set(edb_preds)

    def out_node(p: str) -> int:
        """The node carrying ``p``'s final value for later strata."""
        if p in edb_set:
            return b.node(("edb", p), f"edb:{p}")
        si = stratum_of[p]
        last = n_iters[si] - 1
        return b.node(("pred", p, si, last), f"{p}@{si}.{last}")

    changed: dict[int, bool] = {}

    def mark(node_id: int, is_changed: bool) -> None:
        changed[node_id] = changed.get(node_id, False) or is_changed

    # EDB nodes change iff their relation actually changed (deleting an
    # absent fact, or re-inserting a present one, changes nothing)
    for p in edb_preds:
        old_rel = edb_old.relations.get(p)
        new_rel = edb_new.relations.get(p)
        old_facts = set(old_rel) if old_rel is not None else set()
        new_facts = set(new_rel) if new_rel is not None else set()
        mark(b.node(("edb", p)), old_facts != new_facts)

    work: dict[int, float] = {}
    task_nodes: set[int] = set()

    for si, stratum in enumerate(strata):
        stratum_set = set(stratum)
        stratum_rules = [
            (ri, r) for ri, r in enumerate(rules)
            if r.head.predicate in stratum_set
        ]
        for k in range(n_iters[si]):
            rec_old = (
                ev_old.iterations[si][k]
                if k < len(ev_old.iterations[si])
                else {}
            )
            rec_new = (
                ev_new.iterations[si][k]
                if k < len(ev_new.iterations[si])
                else {}
            )
            # predicate-state nodes after iteration k, with pass-through
            # (EDB predicates keep their single source node instead)
            for p in stratum:
                if p in edb_set:
                    continue
                node = b.node(("pred", p, si, k), f"{p}@{si}.{k}")
                # past a materialization's fixpoint, state stays at its last
                ko = min(k, len(ev_old.iterations[si]) - 1)
                kn = min(k, len(ev_new.iterations[si]) - 1)
                old = states_old.get((p, si, ko), states_old.get((p, si, -1)))
                new = states_new.get((p, si, kn), states_new.get((p, si, -1)))
                mark(node, old != new)
                if k > 0:
                    b.add_edge(b.node(("pred", p, si, k - 1)), node)

            # task nodes
            keys = set(rec_old) | set(rec_new)
            if k == 0:
                keys |= {(ri, None) for ri, _ in stratum_rules}
            else:
                for ri, rule in stratum_rules:
                    for pos, lit in enumerate(rule.body):
                        if (
                            lit.atom is not None
                            and not lit.negated
                            and lit.atom.predicate in stratum_set
                            and lit.atom.predicate in recursive
                        ):
                            keys.add((ri, pos))
            for ri, pos in sorted(
                keys, key=lambda t: (t[0], -1 if t[1] is None else t[1])
            ):
                rule = rules[ri]
                tnode = b.node(
                    ("task", si, k, ri, pos), f"r{ri}@{si}.{k}" +
                    (f".d{pos}" if pos is not None else ""),
                )
                task_nodes.add(tnode)
                out_old = frozenset(rec_old.get((ri, pos), frozenset()))
                out_new = frozenset(rec_new.get((ri, pos), frozenset()))
                mark(tnode, out_old != out_new)
                work[tnode] = work_per_derivation * (
                    1 + max(len(out_old), len(out_new))
                )
                # inputs
                for lit in rule.body:
                    if lit.atom is None:
                        continue
                    q = lit.atom.predicate
                    if q in stratum_set and q not in edb_set:
                        if k > 0:
                            b.add_edge(b.node(("pred", q, si, k - 1)), tnode)
                        # at k == 0 a stratum-local predicate holds only
                        # program facts — no dataflow node feeds it
                    else:
                        b.add_edge(out_node(q), tnode)
                # output
                b.add_edge(tnode, b.node(("pred", rule.head.predicate, si, k)))

    dag = b.build()
    n = dag.n_nodes
    work_arr = np.zeros(n, dtype=np.float64)
    is_task = np.zeros(n, dtype=bool)
    for t in task_nodes:
        work_arr[t] = work.get(t, work_per_derivation)
        is_task[t] = True

    changed_arr = np.zeros(n, dtype=bool)
    for nid, flag in changed.items():
        changed_arr[nid] = flag
    changed_edges = changed_arr[dag.edge_array()[:, 0]]

    initial = np.array(
        sorted(b.id_of(("edb", p)) for p in touched), dtype=np.int64
    )
    models = np.full(n, ExecutionModel.SEQUENTIAL, dtype=np.int8)

    trace = JobTrace(
        dag=dag,
        work=work_arr,
        span=work_arr.copy(),
        models=models,
        is_task=is_task,
        initial_tasks=initial,
        changed_edges=changed_edges,
        name=name,
        metadata={
            "generator": "datalog.compile_update",
            "n_rules": len(rules),
            "n_strata": len(strata),
            "work_per_derivation": work_per_derivation,
        },
    )
    return CompiledUpdate(
        trace=trace,
        db_old=db_old,
        db_new=db_new,
        eval_old=ev_old,
        eval_new=ev_new,
        program=program,
        edb_old=edb_old,
        edb_new=edb_new,
        node_keys=b.keys(),
    )
