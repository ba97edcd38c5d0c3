"""Statement-level dependence graph and recurrence detection.

Loop distribution (and therefore blocking, which distributes before
interchanging) is governed by the condensation of this graph: statements in
the same strongly connected component form a *recurrence* and must stay in
one loop; components can be split into separate loops in topological order
(Allen–Kennedy).  The graph is a small in-house multigraph,
:class:`StatementGraph`; its SCCs come from a line-for-line port of
networkx 3.x's non-recursive Tarjan, so components and their order are
networkx's, and ``tests/properties/test_statement_graph_port.py`` holds
the port to networkx (a test-only dependency) on random multigraphs.

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

import heapq
from typing import Iterable, Iterator, Optional, Sequence

from repro.analysis.dependence import Dependence, all_dependences, dependences_between
from repro.analysis.feasibility import direction_feasible, memo_query
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


def _scalars_written(stmts: Iterable[Stmt]) -> set[str]:
    """Scalar names assigned by any of ``stmts`` (pass ``walk_stmts(s)``
    for everything under ``s``)."""
    return {s.target.name for s in stmts if isinstance(s, Assign) and isinstance(s.target, Var)}


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


def _relative_deps_uncached(loop: Loop, ctx: Assumptions) -> list[Dependence]:
    accs = collect_accesses(loop)  # every one has ``loop`` outermost
    out: list[Dependence] = []
    for i in range(len(accs)):
        for j in range(i, len(accs)):
            for d in dependences_between(accs[i], accs[j], ctx, within=loop):
                if _orientation_possible(d, ctx):
                    out.append(d)
    return out


def _orientation_possible(d: Dependence, ctx: Assumptions) -> bool:
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
        if direction_feasible(d.source, d.sink, cand, d.loops, ctx, pinned):
            return True
    if all(x in ("=", "*") for x in dirs) and d.source.position <= d.sink.position:
        cand = ["="] * n
        if direction_feasible(d.source, d.sink, cand, d.loops, ctx, pinned):
            return True
    return False


class DependenceGraph:
    """Dependences of a region plus graph views over them."""

    def __init__(
        self,
        root: Procedure | Stmt | Sequence[Stmt],
        ctx: Optional[Assumptions] = None,
    ):
        self.root = root
        self.ctx = ctx or Assumptions()
        self.deps: list[Dependence] = all_dependences(root, self.ctx)

    # ------------------------------------------------------------------
    def relative_deps(self, loop: Loop) -> list[Dependence]:
        """Dependences among accesses under ``loop``, with the common-loop
        vector starting at ``loop`` (outer loops held fixed).

        Orientations whose direction vector leads with '*' are verified
        against the exact iteration space (direction-vector hierarchy
        testing on the Fourier–Motzkin backend); impossible orientations
        are dropped.  This is what breaks the false recurrence between
        block LU's panel and its trailing update after index-set
        splitting.  Memoized per loop *object*, like :func:`all_dependences`,
        and observed as ``graph.relative_deps.*`` (see :func:`memo_query`)."""
        return memo_query(
            "relative", _relative_deps_uncached, (loop, self.ctx), "graph.relative_deps"
        )

    def statement_graph(self, loop: Loop, drop_dep=None) -> StatementGraph:
        """Graph over the *direct children* of ``loop.body`` for
        distribution decisions (see module docstring).

        ``drop_dep``: optional predicate; dependences it accepts are left
        out of the graph — the hook through which Sec. 5.2's commutativity
        knowledge ignores the row-interchange/column-update recurrence."""
        body = loop.body
        g = StatementGraph(body)
        # one walk of each child: the identity map from every statement
        # under it (the child included) to its index, first child winning
        walked = [tuple(walk_stmts(s)) for s in body]
        child: dict[int, int] = {}
        for k, stmts in enumerate(walked):
            for inner in stmts:
                child.setdefault(id(inner), k)
        for d in self.relative_deps(loop):
            if drop_dep is not None and drop_dep(d):
                continue
            u = child.get(id(_top_stmt_of(d.source, loop)))
            v = child.get(id(_top_stmt_of(d.sink, loop)))
            if u is None or v is None or u == v:
                continue
            g.add_edge(u, v, dep=d)
        # scalar flow: a scalar written in one child and upward-exposed
        # (read before any local write) in another orders them within an
        # iteration and carries values across iterations.
        writes = [_scalars_written(stmts) for stmts in walked]
        loop_vars = {l.var for stmts in walked for l in stmts if isinstance(l, Loop)}
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
        """:func:`recurrence_components` of ``loop``'s statement graph."""
        return recurrence_components(self.statement_graph(loop, drop_dep=drop_dep))

    def preventing_dependences(self, loop: Loop, drop_dep=None) -> list[Dependence]:
        """:func:`preventing_dependences` of ``loop``'s statement graph."""
        return preventing_dependences(self.statement_graph(loop, drop_dep=drop_dep))


class StatementGraph:
    """Multigraph over one loop body: node ``k`` is ``body[k]``, and an
    edge ``u -> v`` carries ``dep`` (a :class:`Dependence`) or ``scalar``
    (the names that flow); two statements may share several edges.
    :meth:`edges` runs in networkx ``MultiDiGraph`` order: by source, then
    by target in first-insertion order, then in insertion order."""

    def __init__(self, body: Sequence):
        self.body = body
        self.succ: dict[int, dict[int, list[dict]]] = {k: {} for k in range(len(body))}

    def add_edge(self, u: int, v: int, **data) -> None:
        self.succ[u].setdefault(v, []).append(data)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.succ[u]

    def edges(self) -> Iterator[tuple[int, int, dict]]:
        for u, targets in self.succ.items():
            for v, datas in targets.items():
                for data in datas:
                    yield u, v, data


def strongly_connected_components(g: StatementGraph) -> Iterator[set[int]]:
    """The SCCs of ``g``: networkx 3.x's non-recursive Tarjan (with
    Nuutila's modification) line for line, so each component, its place in
    the sequence and its set's iteration order are networkx's — the linter
    reports the first escaped loop it meets in them."""
    preorder: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    scc_found: set[int] = set()
    scc_queue: list[int] = []
    i = 0  # preorder counter
    neighbors = {v: iter(targets) for v, targets in g.succ.items()}
    for source in g.succ:
        if source in scc_found:
            continue
        queue = [source]
        while queue:
            v = queue[-1]
            if v not in preorder:
                i += 1
                preorder[v] = i
            done = True
            for w in neighbors[v]:
                if w not in preorder:
                    queue.append(w)
                    done = False
                    break
            if done:
                lowlink[v] = preorder[v]
                for w in g.succ[v]:
                    if w not in scc_found:
                        if preorder[w] > preorder[v]:
                            lowlink[v] = min(lowlink[v], lowlink[w])
                        else:
                            lowlink[v] = min(lowlink[v], preorder[w])
                queue.pop()
                if lowlink[v] == preorder[v]:
                    scc = {v}
                    while scc_queue and preorder[scc_queue[-1]] > preorder[v]:
                        scc.add(scc_queue.pop())
                    scc_found.update(scc)
                    yield scc
                else:
                    scc_queue.append(v)


def recurrence_components(g: StatementGraph) -> list[list]:
    """Partition of ``g.body`` into minimal distribution units, in a legal
    execution order: the condensation sorted topologically, ties going to
    the component with the smallest member (Kahn's algorithm over a heap
    keyed by it).  A unit with more than one statement is a recurrence."""
    comps = [sorted(c) for c in strongly_connected_components(g)]
    comp_of = {k: ci for ci, members in enumerate(comps) for k in members}
    after: list[list[int]] = [[] for _ in comps]
    indegree = [0] * len(comps)
    for u, v, _data in g.edges():
        if comp_of[u] != comp_of[v]:
            after[comp_of[u]].append(comp_of[v])
            indegree[comp_of[v]] += 1
    ready = [(members[0], ci) for ci, members in enumerate(comps) if not indegree[ci]]
    heapq.heapify(ready)
    out: list[list] = []
    while ready:
        _first, ci = heapq.heappop(ready)
        out.append([g.body[k] for k in comps[ci]])
        for cj in after[ci]:
            indegree[cj] -= 1
            if not indegree[cj]:
                heapq.heappush(ready, (comps[cj][0], cj))
    return out


def preventing_dependences(g: StatementGraph) -> list[Dependence]:
    """Array dependences participating in a cross-statement cycle of
    ``g`` — the "transformation-preventing dependences" of Procedure
    IndexSetSplit (Fig. 3)."""
    return [data["dep"] for scc in strongly_connected_components(g) if len(scc) > 1
            for u, v, data in g.edges() if u in scc and v in scc and "dep" in data]
