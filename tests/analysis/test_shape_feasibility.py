"""Iteration-space shape classification and FM feasibility."""

import time

from repro.analysis.feasibility import direction_feasible, feasible
from repro.analysis.refs import collect_accesses
from repro.analysis.shape import LoopShape, classify_loop_shape
from repro.ir.build import assign, do, ref
from repro.ir.expr import Const, Max, Min, Var
from repro.symbolic.affine import Affine
from repro.symbolic.assume import Assumptions


def inner(lo, hi):
    return do("J", lo, hi, assign(ref("A", "J"), 0.0))


class TestShapes:
    def test_rectangular(self):
        s = classify_loop_shape(inner(1, "N"), "I")
        assert s.kind == LoopShape.RECTANGULAR

    def test_triangular_lower(self):
        s = classify_loop_shape(inner(Var("I") + 1, "N"), "I")
        assert s.kind == LoopShape.TRIANGULAR_LO
        assert (s.lo.alpha, s.lo.beta) == (1, Const(1))

    def test_triangular_upper_with_slope(self):
        s = classify_loop_shape(inner(1, Var("I") * 2 + 3), "I")
        assert s.kind == LoopShape.TRIANGULAR_HI
        assert (s.hi.alpha, s.hi.beta) == (2, Const(3))

    def test_negative_slope(self):
        s = classify_loop_shape(inner(Var("N") - Var("I"), "M"), "I")
        assert s.kind == LoopShape.TRIANGULAR_LO
        assert s.lo.alpha == -1

    def test_trapezoidal_min(self):
        s = classify_loop_shape(inner("L", Min((Var("I") + Var("N2"), Var("N1")))), "I")
        assert s.kind == LoopShape.TRAPEZOIDAL_MIN
        assert s.hi.invariant_arms == (Var("N1"),)

    def test_trapezoidal_max(self):
        s = classify_loop_shape(inner(Max((Var("I") - Var("N2"), Const(1))), "N1"), "I")
        assert s.kind == LoopShape.TRAPEZOIDAL_MAX

    def test_rhomboidal(self):
        s = classify_loop_shape(inner(Var("I"), Var("I") + Var("N2")), "I")
        assert s.kind == LoopShape.RHOMBOIDAL
        assert s.lo.alpha == s.hi.alpha == 1

    def test_mismatched_slopes_unknown(self):
        s = classify_loop_shape(inner(Var("I"), Var("I") * 2), "I")
        assert s.kind == LoopShape.UNKNOWN

    def test_nonunit_step_unknown(self):
        l = do("J", 1, "N", assign(ref("A", "J"), 0.0), step=2)
        assert classify_loop_shape(l, "I").kind == LoopShape.UNKNOWN


class TestFMCore:
    def a(self, coeffs, const=0):
        return Affine.make(coeffs, const)

    def test_trivial(self):
        assert feasible([self.a({}, 0)])
        assert not feasible([self.a({}, -1)])

    def test_single_variable_window(self):
        # 1 <= x <= 5 and x >= 7: infeasible
        cons = [self.a({"x": 1}, -1), self.a({"x": -1}, 5), self.a({"x": 1}, -7)]
        assert not feasible(cons)

    def test_chain(self):
        # x < y, y < z, z < x: infeasible
        cons = [
            self.a({"y": 1, "x": -1}, -1),
            self.a({"z": 1, "y": -1}, -1),
            self.a({"x": 1, "z": -1}, -1),
        ]
        assert not feasible(cons)

    def test_satisfiable_system(self):
        cons = [self.a({"x": 1}, -1), self.a({"y": 1, "x": -1}), self.a({"y": -1}, 100)]
        assert feasible(cons)

    def test_blow_up_is_refused_before_it_is_built(self, monkeypatch):
        # x >= 5000 + i and x <= j, 2 000 rows each: infeasible, but one
        # round would combine 4 M pairs — inside the 4 000-row guard going
        # in, far past it coming out.  The sound answer is "cannot rule out"
        # and it must cost nothing.
        combined = []
        real = Affine.__mul__
        monkeypatch.setattr(
            Affine, "__mul__", lambda a, k: combined.append(k) or real(a, k))
        cons = [self.a({"x": 1}, -5000 - i) for i in range(2000)]
        cons += [self.a({"x": -1}, j) for j in range(2000)]
        t0 = time.perf_counter()
        assert feasible(cons)
        assert combined == [] and time.perf_counter() - t0 < 1.0
        # the same shape under the guard is still decided exactly
        assert not feasible(cons[:60] + cons[-60:])
        assert len(combined) == 2 * 60 * 60


class TestDirectionFeasible:
    def test_triangular_coupling_blocks_violation(self):
        """The Fig. 6 legality fact: with I >= KK+1, a dependence with
        KK '<' and I '>' between A(I,J) writes and A(KK,J) reads cannot
        exist — the hull says otherwise, the true space knows better."""
        upd = do(
            "J", 1, "N",
            do("I", Var("KK") + 1, "N",
               assign(ref("A", "I", "J"),
                      ref("A", "I", "J") - ref("A", "I", "KK") * ref("A", "KK", "J"))),
        )
        kk = do("KK", "K", Min((Var("K") + Var("KS") - 1, Var("N") - 1)), upd)
        accs = collect_accesses((kk,))
        w = next(a for a in accs if a.is_write)
        r = next(a for a in accs if a.ref.index == (Var("KK"), Var("J")))
        common = w.common_loops(r)
        ctx = Assumptions().assume_ge("KS", 2).assume_ge("K", 1)
        dirs_bad = ["<", "=", ">"]  # carried by KK, reversed on I
        assert not direction_feasible(w, r, dirs_bad, common, ctx)
        # while the forward-carried direction is of course possible
        assert direction_feasible(w, r, ["<", "=", "*"], common, ctx)

    def test_disjunctive_min_lower_bound(self):
        """A MIN *lower* bound is a disjunction; the arm enumeration must
        still refute impossible equalities (the J >= MIN(K+KS, N) case)."""
        j2 = do(
            "J", Min((Var("K") + Var("KS"), Var("N"))), "N",
            do("I", Var("K") + 1, "N",
               do("KK", "K", Min((Var("I") - 1, Var("K") + Var("KS") - 1)),
                  assign(ref("A", "I", "J"),
                         ref("A", "I", "J") - ref("A", "I", "KK") * ref("A", "KK", "J")))),
        )
        accs = collect_accesses((j2,))
        w = next(a for a in accs if a.is_write)
        mult = next(a for a in accs if a.ref.index == (Var("I"), Var("KK")))
        common = w.common_loops(mult)
        ctx = Assumptions().assume_ge("KS", 2).assume_ge("K", 1).assume_ge("N", 2)
        # same iteration of every loop: the write column J >= MIN(K+KS,N)
        # can never equal the multiplier column KK <= MIN(K+KS-1, N-1)
        dirs = ["="] * len(common)
        assert not direction_feasible(w, mult, dirs, common, ctx)
