"""Regression tests for soundness bugs found while deriving block LU.

Each test encodes a precise failure mode that once produced either a
*wrong* transformation (unsound) or a *missed* one (incomplete); they pin
the corrected behaviour.
"""

from repro.analysis.context import context_for_path
from repro.analysis.feasibility import direction_feasible
from repro.analysis.graph import DependenceGraph
from repro.analysis.refs import collect_accesses
from repro.ir.build import assign, do, ref
from repro.ir.expr import Min, Var
from repro.ir.stmt import ArrayDecl, Loop, Procedure
from repro.ir.visit import loop_by_var
from repro.symbolic.assume import Assumptions


def strip_mined_lu():
    """Point LU with the K loop strip-mined (the Sec. 5.1 starting point)."""
    from repro.algorithms import lu_point_ir
    from repro.transform.stripmine import strip_mine

    p = lu_point_ir()
    proc, _ = strip_mine(p, loop_by_var(p.body, "K"), "KS")
    return proc


class TestContextFactScoping:
    """FM context facts are per-iteration relations.

    The bug: the fact ``KK <= J-1`` (derived from J's loop bound
    ``J >= KK+1``) leaked onto the *sink copy* ``KK'`` with the *source's*
    ``J``, "proving" the real dependence update->scale impossible — which
    let the driver distribute pivoted LU without commutativity knowledge
    and produce wrong code.
    """

    def test_update_to_scale_flow_is_feasible(self):
        proc = strip_mined_lu()
        kk = loop_by_var(proc.body, "KK")
        base = Assumptions().assume_ge("N", 2).assume_ge("KS", 2)
        ctx = context_for_path(proc, kk, base)
        accs = [a for a in collect_accesses(proc) if a.array == "A"]
        upd_w = next(a for a in accs if a.is_write and a.ref.index == (Var("I"), Var("J")))
        scale_r = next(
            a
            for a in accs
            if not a.is_write
            and a.ref.index == (Var("I"), Var("KK"))
            and a.stmt.target.index == (Var("I"), Var("KK"))
        )
        common = upd_w.common_loops(scale_r)
        # update at block-iteration kk writes column J=kk'; scale at kk'>kk
        # reads it: the KK-carried flow is REAL and must stay feasible
        kk_pos = next(k for k, l in enumerate(common) if l is kk)
        dirs = ["="] * kk_pos + ["<"] + ["*"] * (len(common) - kk_pos - 1)
        assert direction_feasible(upd_w, scale_r, dirs, common, ctx)

    def test_recurrence_detected_before_split(self):
        proc = strip_mined_lu()
        kk = loop_by_var(proc.body, "KK")
        base = Assumptions().assume_ge("N", 2).assume_ge("KS", 2)
        g = DependenceGraph(proc, context_for_path(proc, kk, base))
        comps = g.recurrence_components(kk)
        # scale and update form one recurrence until the J split
        assert any(len(c) == 2 for c in comps)
        assert g.preventing_dependences(kk)


class TestSiblingLoopContexts:
    """Same-named sibling loops (from index-set splitting) must never be
    merged into one assumption context — that once made the context claim
    ``I >= IMAX`` and ``I <= IMAX-1`` simultaneously, "proving" anything.
    """

    def test_contradictory_siblings_isolated(self):
        a = do("I", Var("P"), Var("P"), assign(ref("A", "I"), 0.0))
        b = do("I", Var("P") + 1, "N", assign(ref("A", "I"), 1.0))
        proc = Procedure("p", ("N", "P"), (ArrayDecl("A", (Var("N"),)),), (a, b))
        ctx_b = context_for_path(proc, b)
        # from b's path alone: I >= P+1; the sibling's I <= P must not leak
        assert ctx_b.compare(Var("I"), Var("P")) == ">"


class TestOrientationFiltering:
    """'*'-leading dependences are emitted in both orientations by the
    pair test; the statement graph must drop orientations the iteration
    space cannot realize — otherwise false cycles block distribution
    (block LU stalls), and with an unsound filter real cycles vanish
    (pivoted LU distributes illegally).  Both directions pinned here.
    """

    def test_false_reverse_edge_dropped_after_split(self):
        """After the J split, trailing-update writes (cols >= K+KS) cannot
        flow *backward* into the panel (cols <= K+KS-1) within a K
        iteration: the distribution graph must be acyclic."""
        from repro.algorithms import lu_point_ir
        from repro.transform.blocking import block_loop

        base = Assumptions().assume_ge("N", 2)
        out, report = block_loop(lu_point_ir(), "K", "KS", ctx=base)
        assert report.blocked_innermost == 1  # distribution succeeded

    def test_real_reverse_edge_kept_for_pivoting(self):
        """In pivoted LU the row-swap reads ALL columns, so the update's
        writes genuinely flow into later swaps: without commutativity the
        KK loop must remain one recurrence (no illegal distribution)."""
        from repro.algorithms import lu_pivot_point_ir
        from repro.transform.blocking import block_loop

        base = Assumptions().assume_ge("N", 2)
        out, report = block_loop(lu_pivot_point_ir(), "K", "KS", ctx=base)
        assert report.blocked_innermost == 0  # the recurrence stays whole


class TestMinMaxBoundReasoning:
    """MIN in a lower bound is a disjunction: FM must enumerate the arms
    (dropping them once made J's lower bound invisible and refused the
    legal KK interchange); simplify must prune dominated MAX arms using
    arm-wise proofs (MAX(KK+1, MIN(K+KS, N)) -> MIN(K+KS, N))."""

    def test_max_arm_pruning_with_min_rhs(self):
        from repro.symbolic.simplify import simplify
        from repro.ir.expr import Max

        ctx = (
            Assumptions()
            .assume_ge("KS", 2)
            .assume_range("KK", Var("K"), Var("K") + Var("KS") - 1)
            .assume_le("KK", Var("N") - 1)
        )
        e = Max((Var("KK") + 1, Min((Var("K") + Var("KS"), Var("N")))))
        assert simplify(e, ctx) == Min((Var("K") + Var("KS"), Var("N")))

    def test_distributing_arithmetic_into_min(self):
        """prove_lt(MIN(a,b), MIN(a,b)+1) needs +1 pushed into the arms."""
        from repro.symbolic.simplify import prove_lt, simplify
        from repro.ir.expr import BinOp, Const

        m = Min((Var("X"), Var("Y")))
        bumped = simplify(BinOp("+", m, Const(1)))
        assert prove_lt(m, bumped, Assumptions())
