"""Statement-level dependence graph and recurrence detection.

Loop distribution (and therefore blocking, which distributes before
interchanging) is governed by the condensation of this graph: statements in
the same strongly connected component form a *recurrence* and must stay in
one loop; components can be split into separate loops in topological order
(Allen–Kennedy).  The graph is built on networkx so SCC/condensation come
from a vetted implementation.

Two views matter and they differ:

- the **global** dependence list (``DependenceGraph.deps``) uses the full
  common-loop vector of each access pair — interchange/blocking safety
  questions read this;
- the **distribution** view (:meth:`DependenceGraph.statement_graph`) is
  computed *relative to* the loop being distributed: loops outer to it are
  fixed symbols, because distribution reorders statements only within one
  iteration of everything outer.  Scalar (non-array) flow between body
  statements is included here too — a scalar carried between candidate
  partitions is precisely the "needs scalar expansion" situation of the
  Givens QR study (Sec. 5.4).
"""

from __future__ import annotations

from typing import Optional, Sequence

import networkx as nx

from repro.analysis.dependence import Dependence, all_dependences, dependences_between
from repro.analysis.feasibility import direction_feasible
from repro.analysis.refs import RefAccess, collect_accesses
from repro.ir.expr import Var, free_vars
from repro.ir.stmt import Assign, If, Loop, Procedure, Stmt
from repro.ir.visit import walk_stmts
from repro.symbolic.assume import Assumptions


def _top_stmt_of(acc: RefAccess, loop: Loop) -> Stmt:
    """The direct child of ``loop.body`` that (transitively) contains the
    access (one collected under ``loop``): the access's next-inner loop
    after ``loop``, or its statement."""
    inside = acc.loops_from(loop)
    return inside[1] if len(inside) > 1 else acc.stmt


def _position_in_body(stmt: Stmt, body: Sequence[Stmt]) -> Optional[int]:
    # direct child, or nested (under an If) within a direct child
    for k, s in enumerate(body):
        if s is stmt:
            return k
        for inner in walk_stmts(s):
            if inner is stmt:
                return k
    return None


def _scalars_written(stmt: Stmt) -> set[str]:
    out = set()
    for s in walk_stmts(stmt):
        if isinstance(s, Assign) and isinstance(s.target, Var):
            out.add(s.target.name)
    return out


def _upward_exposed_scalars(stmt: Stmt) -> set[str]:
    """Scalar names ``stmt`` may read before writing them.

    Linear scan with kill tracking; definitions under a loop or IF do not
    kill for the enclosing scan (the construct may not execute), so the
    analysis over-approximates exposure — the safe direction for the
    scalar-flow edges distribution depends on.
    """
    exposed: set[str] = set()

    def scan(stmts, killed: set[str]) -> None:
        for s in stmts:
            if isinstance(s, Assign):
                reads: set[str] = set(free_vars(s.value))
                if not isinstance(s.target, Var):
                    for e in s.target.index:
                        reads |= free_vars(e)
                exposed.update(reads - killed)
                if isinstance(s.target, Var):
                    killed.add(s.target.name)
            elif isinstance(s, Loop):
                reads = free_vars(s.lo) | free_vars(s.hi) | free_vars(s.step)
                exposed.update(reads - killed)
                inner = set(killed)
                inner.add(s.var)
                scan(s.body, inner)
            elif isinstance(s, If):
                exposed.update(free_vars(s.cond) - killed)
                scan(s.then, set(killed))
                scan(s.els, set(killed))

    scan((stmt,), set())
    return exposed


class DependenceGraph:
    """Dependences of a region plus graph views over them."""

    def __init__(
        self,
        root: Procedure | Stmt | Sequence[Stmt],
        ctx: Optional[Assumptions] = None,
        include_input: bool = False,
    ):
        self.root = root
        self.ctx = ctx or Assumptions()
        self.deps: list[Dependence] = all_dependences(root, self.ctx, include_input)

    # ------------------------------------------------------------------
    def relative_deps(self, loop: Loop) -> list[Dependence]:
        """Dependences among accesses under ``loop``, with the common-loop
        vector starting at ``loop`` (outer loops held fixed).

        Orientations whose direction vector leads with '*' are verified
        against the exact iteration space (direction-vector hierarchy
        testing on the Fourier–Motzkin backend); impossible orientations
        are dropped.  This is what breaks the false recurrence between
        block LU's panel and its trailing update after index-set
        splitting."""
        accs = collect_accesses(loop)  # every one has ``loop`` outermost
        out: list[Dependence] = []
        for i in range(len(accs)):
            for j in range(i, len(accs)):
                for d in dependences_between(accs[i], accs[j], self.ctx, within=loop):
                    if self._orientation_possible(d):
                        out.append(d)
        return out

    def _orientation_possible(self, d: Dependence) -> bool:
        dirs = d.direction
        first = next((k for k, x in enumerate(dirs) if x != "="), None)
        if first is None or dirs[first] == "<":
            return True  # exact loop-independent or exact leading distance
        # leading '*': the orientation is real if it can be carried at some
        # level, or realized loop-independently in textual order.
        pinned = tuple(
            l.var for l in d.source.common_loops(d.sink) if not any(c is l for c in d.loops)
        )
        n = len(dirs)
        for j in range(n):
            if any(dirs[k] == "<" for k in range(j)):
                break  # an exact '<' outside position j contradicts '=' there
            if dirs[j] not in ("<", "*"):
                continue
            cand = ["="] * j + ["<"] + ["*"] * (n - j - 1)
            if direction_feasible(d.source, d.sink, cand, d.loops, self.ctx, pinned):
                return True
        if all(x in ("=", "*") for x in dirs) and d.source.position <= d.sink.position:
            cand = ["="] * n
            if direction_feasible(d.source, d.sink, cand, d.loops, self.ctx, pinned):
                return True
        return False

    def statement_graph(self, loop: Loop, drop_dep=None) -> nx.MultiDiGraph:
        """Graph over the *direct children* of ``loop.body`` for
        distribution decisions (see module docstring).

        ``drop_dep``: optional predicate; dependences it accepts are left
        out of the graph — the hook through which Sec. 5.2's commutativity
        knowledge ignores the row-interchange/column-update recurrence."""
        g = nx.MultiDiGraph()
        body = loop.body
        for k, s in enumerate(body):
            g.add_node(k, stmt=s)
        for d in self.relative_deps(loop):
            if drop_dep is not None and drop_dep(d):
                continue
            u = _position_in_body(_top_stmt_of(d.source, loop), body)
            v = _position_in_body(_top_stmt_of(d.sink, loop), body)
            if u is None or v is None or u == v:
                continue
            g.add_edge(u, v, dep=d)
        # scalar flow: a scalar written in one child and upward-exposed
        # (read before any local write) in another orders them within an
        # iteration and carries values across iterations.
        writes = [(_scalars_written(s)) for s in body]
        loop_vars = {l.var for l in walk_stmts(loop) if isinstance(l, Loop)}
        loop_vars.add(loop.var)
        reads = [_upward_exposed_scalars(s) - loop_vars for s in body]
        for u in range(len(body)):
            for v in range(len(body)):
                if u == v:
                    continue
                crossing = writes[u] & reads[v]
                if crossing:
                    g.add_edge(u, v, scalar=sorted(crossing))
        return g

    def recurrence_components(self, loop: Loop, drop_dep=None) -> list[list[Stmt]]:
        """Partition of ``loop.body`` into minimal distribution units, in a
        legal execution order.  A unit with more than one statement is a
        recurrence."""
        g = self.statement_graph(loop, drop_dep=drop_dep)
        sccs = list(nx.strongly_connected_components(g))
        cond = nx.condensation(g, scc=sccs)
        # Stable order: topological, ties broken by first textual member.
        order = list(
            nx.lexicographical_topological_sort(cond, key=lambda c: min(cond.nodes[c]["members"]))
        )
        out: list[list[Stmt]] = []
        for comp_id in order:
            members = sorted(cond.nodes[comp_id]["members"])
            out.append([loop.body[k] for k in members])
        return out

    def preventing_dependences(self, loop: Loop, drop_dep=None) -> list[Dependence]:
        """Array dependences participating in a cross-statement cycle of
        ``loop``'s statement graph — the "transformation-preventing
        dependences" of Procedure IndexSetSplit (Fig. 3)."""
        g = self.statement_graph(loop, drop_dep=drop_dep)
        prevent: list[Dependence] = []
        for scc in nx.strongly_connected_components(g):
            if len(scc) < 2:
                continue
            for u, v, data in g.edges(data=True):
                if u in scc and v in scc and "dep" in data:
                    prevent.append(data["dep"])
        return prevent


def recurrences_in(
    loop: Loop,
    root: Procedure | Stmt | None = None,
    ctx: Optional[Assumptions] = None,
) -> list[list[Stmt]]:
    """Recurrence statement groups of ``loop`` (convenience wrapper)."""
    graph = DependenceGraph(root if root is not None else loop, ctx)
    return [grp for grp in graph.recurrence_components(loop) if len(grp) > 1]
