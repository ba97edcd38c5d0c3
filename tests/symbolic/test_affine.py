"""Affine form conversion and arithmetic."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir.expr import BinOp, Const, IntDiv, Min, Var
from repro.symbolic.affine import Affine, from_affine, to_affine
from tests.conftest import CountingName, assert_canonical, lookup_across_hash_seeds


class TestAffineAlgebra:
    def test_make_drops_zero_coefficients(self):
        a = Affine.make({"I": 0, "J": 2}, 1)
        assert a.variables == {"J"}

    def test_add_sub_mul(self):
        a = Affine.make({"I": 1}, 2)
        b = Affine.make({"I": 3, "J": 1}, -1)
        assert (a + b) == Affine.make({"I": 4, "J": 1}, 1)
        assert (a - b) == Affine.make({"I": -2, "J": -1}, 3)
        assert (a * 2) == Affine.make({"I": 2}, 4)
        assert (-a) == Affine.make({"I": -1}, -2)

    def test_scalar_radd_rsub(self):
        a = Affine.variable("I")
        assert (1 + a).const == 1
        assert (1 - a) == Affine.make({"I": -1}, 1)

    def test_substitute(self):
        a = Affine.make({"I": 2, "J": 1}, 5)
        out = a.substitute({"I": Affine.make({"K": 1}, 1)})
        assert out == Affine.make({"K": 2, "J": 1}, 7)

    def test_eval(self):
        a = Affine.make({"I": 2}, 3)
        assert a.eval({"I": 4}) == 11
        with pytest.raises(KeyError):
            a.eval({})

    def test_integrality(self):
        assert Affine.make({"I": 1}, 2).is_integral()
        assert not (Affine.variable("I") * Fraction(1, 2)).is_integral()


class TestConversion:
    def test_round_trip(self):
        e = Var("I") * 2 + Var("N") - 3
        a = to_affine(e)
        assert a == Affine.make({"I": 2, "N": 1}, -3)
        assert to_affine(from_affine(a)) == a

    def test_mul_requires_constant_side(self):
        assert to_affine(BinOp("*", Var("I"), Var("J"))) is None

    def test_float_rejected(self):
        assert to_affine(Const(1.5)) is None

    def test_minmax_not_affine(self):
        assert to_affine(Min((Var("I"), Var("N")))) is None

    def test_exact_intdiv_folds(self):
        e = IntDiv(Var("I") * 4 + 8, Const(4))
        assert to_affine(e) == Affine.make({"I": 1}, 2)

    def test_inexact_intdiv_rejected(self):
        assert to_affine(IntDiv(Var("I"), Const(2))) is None

    def test_from_affine_requires_integral(self):
        with pytest.raises(ValueError):
            from_affine(Affine.variable("I") * Fraction(1, 2))

    def test_constant_form(self):
        assert from_affine(Affine.constant(7)) == Const(7)



# ---- the representation: integer-first, one canonical form ------------------

NAMES = st.sampled_from(["I", "J", "K", "N"])
SMALL = st.integers(-6, 6)
NONZERO = SMALL.filter(bool)
# k, 1/k and p/q: 1/k meets k again and must come back an int
SCALARS = st.one_of(
    SMALL, NONZERO.map(lambda k: Fraction(1, k)), st.builds(Fraction, SMALL, NONZERO)
)
LEAVES = st.one_of(
    st.tuples(st.just("constant"), SCALARS),
    st.tuples(st.just("variable"), NAMES),
    st.tuples(st.just("make"), st.dictionaries(NAMES, SCALARS, max_size=3), SCALARS),
)


def _programs(sub):
    return st.one_of(
        st.tuples(st.sampled_from(["add", "sub"]), sub, sub),
        st.tuples(st.sampled_from(["mul", "rmul", "addk", "rsubk"]), sub, SCALARS),
        st.tuples(st.just("substitute"), sub, st.dictionaries(NAMES, sub, max_size=2)),
        st.tuples(st.just("div"), sub, SCALARS.filter(bool)),
        st.tuples(st.just("intdiv"), sub, NONZERO),
    )


PROGRAMS = st.recursive(LEAVES, _programs, max_leaves=8)


def _model(coeffs, const):
    """The reference: plain ``Fraction`` arithmetic over a dict."""
    return {n: Fraction(c) for n, c in coeffs.items() if c}, Fraction(const)


def _combine(x, y, ky=1, kx=1):
    """``kx*x + ky*y`` in the model."""
    d = {n: c * kx for n, c in x[0].items()}
    for n, c in y[0].items():
        d[n] = d.get(n, 0) + c * ky
    return _model(d, x[1] * kx + y[1] * ky)


def run(prog) -> tuple[Affine, tuple]:
    """Evaluate ``prog`` on :class:`Affine` and on the model, in step."""
    op = prog[0]
    if op == "constant":
        return Affine.constant(prog[1]), _model({}, prog[1])
    if op == "variable":
        return Affine.variable(prog[1]), _model({prog[1]: 1}, 0)
    if op == "make":
        return Affine.make(prog[1], prog[2]), _model(prog[1], prog[2])
    a, m = run(prog[1])
    if op in ("add", "sub"):
        b, mb = run(prog[2])
        sign = 1 if op == "add" else -1
        return (a + b if op == "add" else a - b), _combine(m, mb, sign)
    k = prog[2]
    if op in ("mul", "rmul"):
        return (a * k if op == "mul" else k * a), _combine(m, _model({}, 0), 1, k)
    if op == "div":
        return a / k, _combine(m, _model({}, 0), 1, 1 / Fraction(k))
    if op == "addk":
        return a + k, _combine(m, _model({}, k))
    if op == "rsubk":
        return k - a, _combine(m, _model({}, k), 1, -1)
    if op == "substitute":
        parts = {n: run(p) for n, p in k.items()}
        out = _model({n: c for n, c in m[0].items() if n not in parts}, m[1])
        for n, (_, mp) in parts.items():
            out = _combine(out, mp, m[0].get(n, 0))
        return a.substitute({n: p for n, (p, _) in parts.items()}), out
    assert op == "intdiv"
    if not a.is_integral():
        return a, m
    q = to_affine(IntDiv(from_affine(a), Const(k)))
    exact = all(c % k == 0 for c in list(m[0].values()) + [m[1]])
    assert (q is not None) == exact
    return (q, _combine(_model({}, 0), m, Fraction(1, k))) if exact else (a, m)


class TestValueHazards:
    """A slotted value with a kept hash: immutable, equal only to its own
    kind, hashed once, and never carrying that hash to another process."""

    def test_assignment_and_deletion_raise(self):
        a = Affine.make({"I": 2}, 1)
        for attack in (
            lambda: setattr(a, "const", 5),
            lambda: setattr(a, "coeffs", ()),
            lambda: setattr(a, "_hash", 0),
            lambda: setattr(a, "extra", 1),
            lambda: delattr(a, "const"),
        ):
            with pytest.raises(AttributeError):
                attack()
        assert a == Affine.make({"I": 2}, 1)

    def test_never_equal_to_its_tuple(self):
        a = Affine.make({"I": 2}, 1)
        assert a != (a.coeffs, a.const)
        assert a != a.coeffs and (a.coeffs, a.const) != a
        assert Affine.constant(0) != 0

    def test_hash_computed_once(self):
        a = Affine(((CountingName("I"), 1),), 0)
        CountingName.hashes = 0
        for _ in range(5):
            hash(a)
        assert CountingName.hashes == 1

    def test_copies_hash_like_fresh_equal_objects(self):
        a = Affine.make({"I": 2, "N": Fraction(1, 3)}, -1)
        hash(a)
        for twin in (copy.deepcopy(a), copy.copy(a), pickle.loads(pickle.dumps(a))):
            fresh = Affine.make({"I": 2, "N": Fraction(1, 3)}, -1)
            assert twin == fresh and hash(twin) == hash(fresh)
            assert {fresh: "found"}[twin] == "found"

    def test_pickled_under_one_hash_seed_found_under_another(self):
        build = (
            "from fractions import Fraction\n"
            "from repro.symbolic.affine import Affine\n"
            "OBJS = [Affine.make({'I': 2, 'KS': -1}, 3), Affine.variable('N'),\n"
            "        Affine.make({'J': Fraction(1, 2)}, 0), Affine.constant(7)]\n"
        )
        assert lookup_across_hash_seeds(build) == [0, 1, 2, 3]


class TestRepresentation:
    @settings(max_examples=300, deadline=None)
    @given(PROGRAMS, st.fixed_dictionaries({n: SMALL for n in "IJKN"}))
    def test_agrees_with_the_fraction_model_in_canonical_form(self, prog, env):
        a, (coeffs, const) = run(prog)
        assert_canonical(a)
        assert dict(a.coeffs) == coeffs and a.const == const
        assert a.eval(env) == const + sum(c * env[n] for n, c in coeffs.items())
        # equal forms are == and hash alike, however they were reached
        same = Affine.make(coeffs, const)
        assert a == same and hash(a) == hash(same)
        assert a.is_integral() == all(c.denominator == 1 for c in [*coeffs.values(), const])

    def test_a_rational_that_becomes_integral_is_an_int_again(self):
        half = Affine.variable("I") * Fraction(1, 2)
        assert type(half.coeff("I")) is Fraction
        assert_canonical(half * 2)
        assert type((half * 2).coeff("I")) is int
        assert type((half + half).coeff("I")) is int
        assert type((Affine.constant(Fraction(1, 2)) + Fraction(1, 2)).const) is int

    @pytest.mark.parametrize("bad", [0.5, 2.0, "1"])
    def test_a_float_cannot_get_in(self, bad):
        a = Affine.make({"I": 2}, 1)
        for build in (
            lambda: Affine.constant(bad),
            lambda: Affine.make({"I": bad}),
            lambda: Affine.make({"I": 1}, bad),
            lambda: a * bad,
            lambda: a / bad,
            lambda: a + bad,
            lambda: a - bad,
        ):
            with pytest.raises((TypeError, AttributeError)):
                build()
