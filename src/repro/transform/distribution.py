"""Loop distribution (Allen–Kennedy).

Splits one loop into several, each iterating the full index set over a
subset of the body, in an order that respects the dependence condensation.
Statements in one strongly-connected component (a recurrence) stay
together; a scalar flowing between different components would be read
stale after distribution, so that situation raises — with the offending
names attached, because the Givens QR pipeline reacts to it by *scalar
expanding* exactly those names and retrying (Sec. 5.4's "distribution
(with scalar expansion)").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.graph import DependenceGraph, preventing_dependences, recurrence_components
from repro.errors import TransformError
from repro.ir.stmt import Loop, Procedure, Stmt
from repro.ir.visit import replace_loop
from repro.symbolic.assume import Assumptions


class ScalarFlowError(TransformError):
    """Distribution blocked by scalar values crossing components."""

    def __init__(self, names: set[str]):
        self.names = set(names)
        super().__init__(
            f"distribution requires scalar expansion of: {', '.join(sorted(names))}"
        )


def distribute(
    proc: Procedure,
    loop: Loop,
    ctx: Optional[Assumptions] = None,
    partition: Optional[Sequence[Sequence[Stmt]]] = None,
    drop_dep=None,
) -> tuple[Procedure, list[Loop]]:
    """Distribute ``loop`` into one loop per dependence component.

    With ``partition`` given (a grouping of ``loop.body`` statements in
    desired textual order), validate it against the component structure
    instead of using maximal distribution.  ``drop_dep`` is a predicate
    declaring specific dependences ignorable (commutativity knowledge).
    Returns the new procedure and the list of loops that replaced
    ``loop``, in order.
    """
    ctx = ctx or Assumptions()
    g = DependenceGraph(proc, ctx).statement_graph(loop, drop_dep=drop_dep)
    components = recurrence_components(g)

    # Scalar flow crossing two components would be read stale after
    # distribution, so scalar-linked components are FUSED (less
    # distribution, always legal).  Fusion is closed over the textual
    # interval so every group stays contiguous in the component order.
    comp_of: dict[int, int] = {}
    for ci, comp in enumerate(components):
        for s in comp:
            comp_of[id(s)] = ci
    crossing: list[tuple[int, int, list[str]]] = []
    for u, v, data in g.edges():
        if "scalar" not in data:
            continue
        cu = comp_of.get(id(loop.body[u]))
        cv = comp_of.get(id(loop.body[v]))
        if cu is not None and cv is not None and cu != cv:
            crossing.append((cu, cv, data["scalar"]))

    # fuse each scalar-linked pair and every component between them: one
    # sweep in component order joins the overlapping intervals
    reach = list(range(len(components)))
    for cu, cv, _names in crossing:
        reach[min(cu, cv)] = max(reach[min(cu, cv)], cu, cv)
    merged: list[list[Stmt]] = []
    end = -1
    for ci, comp in enumerate(components):
        if ci > end:
            merged.append([])
        end = max(end, reach[ci])
        merged[-1].extend(comp)
    # within a fused group, statements run in their original textual order
    position = {id(s): k for k, s in enumerate(loop.body)}
    groups = [sorted(grp, key=lambda s: position[id(s)]) for grp in merged]

    if len(groups) < 2 and partition is None:
        stale = sorted({n for _u, _v, names in crossing for n in names})
        if stale:
            # expansion of these scalars would re-enable distribution
            raise ScalarFlowError(set(stale))
        prevent = preventing_dependences(g)
        err = TransformError(
            f"loop {loop.var} is a single recurrence; distribution is prevented"
        )
        err.preventing = prevent  # type: ignore[attr-defined]
        raise err

    if partition is not None:
        groups = _validated_partition(loop, groups, partition)

    new_loops = [
        Loop(loop.var, loop.lo, loop.hi, tuple(grp), step=loop.step) for grp in groups
    ]
    return replace_loop(proc, loop, new_loops), new_loops


def _validated_partition(
    loop: Loop,
    components: Sequence[Sequence[Stmt]],
    partition: Sequence[Sequence[Stmt]],
) -> list[list[Stmt]]:
    """Check a requested grouping: every component stays within one group
    and the requested order extends the component order."""
    group_of: dict[int, int] = {}
    for gi, grp in enumerate(partition):
        for s in grp:
            group_of[id(s)] = gi
    covered = {sid for sid in group_of}
    for s in loop.body:
        if id(s) not in covered:
            raise TransformError("partition does not cover the whole loop body")
    for comp in components:
        gids = {group_of[id(s)] for s in comp}
        if len(gids) > 1:
            raise TransformError("partition splits a recurrence")
    # component order must be non-decreasing in group index
    last = -1
    order: list[int] = []
    for comp in components:
        gi = group_of[id(comp[0])]
        order.append(gi)
    seen: list[int] = []
    for gi in order:
        if gi in seen:
            continue
        seen.append(gi)
    if seen != sorted(seen):
        raise TransformError("partition reorders dependent components")
    return [list(grp) for grp in partition]
