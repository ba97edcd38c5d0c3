"""Named workloads: algorithm + assumptions + pass bindings.

A workload packages what the CLI and the experiment layer need to run a
derivation by name: the point algorithm builder, the paper's assumption
context, per-pass default options (which loop to block, by what factor,
what to unroll), and small verification sizes.

``--algorithm lu_nopivot --passes split,block,jam`` resolves each pass
name against :attr:`Workload.pass_options`, so the same pass vocabulary
drives every algorithm with the right bindings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import algorithms as alg
from repro.errors import PipelineError
from repro.ir.expr import Var
from repro.ir.pretty import fmt_expr
from repro.ir.stmt import Procedure
from repro.symbolic.affine import from_affine
from repro.symbolic.assume import Assumptions


@dataclass(frozen=True)
class Workload:
    name: str
    title: str
    build: Callable[[], Procedure]
    assumptions: Callable[[int], Assumptions]  # unroll factor -> context
    pass_options: dict = field(default_factory=dict)  # pass name -> options
    default_passes: tuple = ()
    verify_sizes: dict = field(default_factory=dict)
    unroll: int = 4
    #: (problem size n, blocking factor b) -> concrete symbol bindings;
    #: must reproduce ``verify_sizes`` exactly at ``(None, None)`` so
    #: default-path callers stay byte-identical.  The experiment grid
    #: (:mod:`repro.matrix`) varies n and b through this factory instead
    #: of editing IR or size dicts ad hoc.
    size_factory: Optional[Callable[[Optional[int], Optional[int]], dict]] = None

    def resolve_specs(
        self,
        names: Optional[list] = None,
        unroll: Optional[int] = None,
        factor: Optional[int | str] = None,
    ) -> list[tuple]:
        """(name, options) pairs for the requested (or default) passes,
        with the workload's bindings and any overrides applied."""
        unroll = self._unroll(unroll)
        factor = self._factor(factor)
        names = list(names) if names else list(self.default_passes)
        specs = []
        for name in names:
            options = dict(self.pass_options.get(name, {}))
            if unroll is not None and name == "jam":
                options["unroll"] = unroll
            if factor is not None and name in ("block", "stripmine"):
                options["factor"] = factor
            specs.append((name, options))
        return specs

    def context(self, unroll: Optional[int] = None) -> Assumptions:
        return self.assumptions(self._unroll(unroll) or self.unroll)

    def _unroll(self, unroll):
        """``unroll`` if None or a factor jam can use: an int >= 1, not a bool."""
        if unroll is None or type(unroll) is int and unroll >= 1:
            return unroll
        raise PipelineError(f"workload {self.name!r}: unroll must be an int >= 1, "
                            f"got {unroll!r}")

    def _factor(self, factor):
        """``factor`` if None or a factor block/stripmine can use: an int
        >= 1 (not a bool), or a symbol name such as ``KS``."""
        if (factor is None or type(factor) is int and factor >= 1
                or type(factor) is str and factor.isidentifier()):
            return factor
        raise PipelineError(f"workload {self.name!r}: factor must be an int >= 1 or a "
                            f"symbol name, got {factor!r}")

    def sizes_for(
        self, n: Optional[int] = None, b: Optional[int] = None
    ) -> dict:
        """Concrete symbol bindings for problem size ``n`` and blocking
        factor ``b``; both default to today's values (``verify_sizes``).

        Grid cells bind sizes through this method, so varying n or b
        never requires touching the (symbolic) IR: the builder output is
        identical, only the runtime binding moves.  Bindings that break
        a fact the workload's context stores are refused, as ``--sizes``
        refuses them (:meth:`check_facts`).
        """
        if n is None and b is None:
            return dict(self.verify_sizes)
        if self.size_factory is None:
            raise PipelineError(
                f"workload {self.name!r} has no size factory; "
                "cannot vary problem size or blocking factor"
            )
        if n is not None and n < 4:
            raise PipelineError(
                f"workload {self.name!r}: problem size n must be >= 4, got {n}"
            )
        if b is not None and b < 1:
            raise PipelineError(
                f"workload {self.name!r}: blocking factor b must be >= 1, got {b}"
            )
        sizes = self.size_factory(n, b)
        self.check_facts(sizes, sizes, self.context(), f"workload {self.name!r} at n={n}, b={b}")
        return sizes

    def check_facts(self, sizes: dict, names, ctx: Assumptions, bad: str) -> None:
        """Raise :class:`PipelineError` ``"{bad}: ..."`` when the binding
        of one of ``names`` in ``sizes`` breaks a bound that ``ctx``
        (``self.context(unroll)``) stores on it; a bound over a symbol
        ``sizes`` leaves free is not checked."""
        for name in names:  # a fact over several names is stored on each
            lows, highs = ctx.bounds_of(name)
            for op, bound in [(">=", b) for b in lows] + [("<=", b) for b in highs]:
                try:
                    limit = bound.eval(sizes)
                except KeyError:
                    continue
                if sizes[name] < limit if op == ">=" else sizes[name] > limit:
                    with_ = "".join(f", {n}={sizes[n]}" for n, _ in bound.coeffs)
                    fact = f"{name} {op} {fmt_expr(from_affine(bound))}"
                    raise PipelineError(
                        f"{bad}: {name}={sizes[name]}{with_} breaks the workload's fact {fact}")


_REGISTRY: dict[str, Workload] = {}


def register(w: Workload) -> None:
    if w.name in _REGISTRY:
        raise PipelineError(f"workload {w.name!r} registered twice")
    _REGISTRY[w.name] = w


def get_workload(name: str) -> Workload:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise PipelineError(f"unknown algorithm {name!r} (known: {known})") from None


def available_workloads() -> list[Workload]:
    return [w for _, w in sorted(_REGISTRY.items())]


# ---------------------------------------------------------------------------
# the paper's workloads
# ---------------------------------------------------------------------------

# Size factories: map (n, b) to each workload's symbol vocabulary.  A
# None argument falls back to the verify_sizes value, so a factory at
# (None, None) reproduces verify_sizes exactly (asserted in tests).

def _lu_sizes(n, b) -> dict:
    return {"N": 13 if n is None else n, "KS": 4 if b is None else b}


def _givens_sizes(n, b) -> dict:
    m = 10 if n is None else n
    return {"M": m, "N": max(2, m - 2)}


def _conv_sizes(n, b) -> dict:
    if n is None:
        return {"N1": 24, "N2": 18, "N3": 20, "DT": 0.5}
    # N2 in [4, N1-1] and N3 <= N1 at the verify-size proportions (3/4
    # and 5/6 of N1); at n=4, N2=3 breaks the registered N2 >= unroll and
    # sizes_for refuses it
    return {
        "N1": n,
        "N2": min(n - 1, max(4, (3 * n) // 4)),
        "N3": min(n, max(1, (5 * n) // 6)),
        "DT": 0.5,
    }


def _matmul_sizes(n, b) -> dict:
    return {"N": 12 if n is None else n}


def _conv_assumptions(u: int) -> Assumptions:
    return (
        Assumptions()
        .assume_ge("N1", 1)
        .assume_ge("N3", 1)
        .assume_ge("N2", u)
        .assume_le("N2", Var("N1") - 1)
        .assume_le("N3", "N1")
    )


register(
    Workload(
        name="lu_nopivot",
        title="LU decomposition without pivoting (Sec. 5.1, Fig. 6)",
        build=alg.lu_point_ir,
        assumptions=lambda u: Assumptions().assume_ge("N", 2),
        pass_options={
            "split": {"loop": "K"},
            "stripmine": {"loop": "K", "factor": "KS"},
            "block": {"loop": "K", "factor": "KS"},
            "jam": {"loop": "J", "unroll": 4},
            "distribute": {"loop": "K"},
        },
        default_passes=("block",),
        verify_sizes={"N": 13, "KS": 4},
        size_factory=_lu_sizes,
    )
)

register(
    Workload(
        name="lu_pivot",
        title="LU decomposition with partial pivoting (Sec. 5.2, Fig. 8)",
        build=alg.lu_pivot_point_ir,
        assumptions=lambda u: Assumptions().assume_ge("N", 2),
        pass_options={
            "block": {"loop": "K", "factor": "KS", "commutativity": True},
            "jam": {"loop": "J", "unroll": 4},
            "distribute": {"loop": "K", "commutativity": True},
        },
        default_passes=("block",),
        verify_sizes={"N": 13, "KS": 4},
        size_factory=_lu_sizes,
    )
)

register(
    Workload(
        name="givens",
        title="QR decomposition with Givens rotations (Sec. 5.4, Fig. 10)",
        build=alg.givens_point_ir,
        assumptions=lambda u: Assumptions().assume_ge("M", 2).assume_le("N", "M"),
        pass_options={
            "jam": {"loop": "J", "unroll": 4},
        },
        default_passes=("givens_opt",),
        verify_sizes={"M": 10, "N": 8},
        size_factory=_givens_sizes,
    )
)

register(
    Workload(
        name="conv",
        title="time-series convolution (Sec. 3.2)",
        build=alg.conv_ir,
        assumptions=_conv_assumptions,
        pass_options={
            "split": {"loop": "I"},
            "jam": {"loop": "I", "unroll": 4},
        },
        default_passes=("split", "jam", "scalars"),
        verify_sizes={"N1": 24, "N2": 18, "N3": 20, "DT": 0.5},
        size_factory=_conv_sizes,
    )
)

register(
    Workload(
        name="aconv",
        title="auto-convolution (Sec. 3.2)",
        build=alg.aconv_ir,
        assumptions=_conv_assumptions,
        pass_options={
            "split": {"loop": "I"},
            "jam": {"loop": "I", "unroll": 4},
        },
        default_passes=("split", "jam", "scalars"),
        verify_sizes={"N1": 24, "N2": 18, "N3": 20, "DT": 0.5},
        size_factory=_conv_sizes,
    )
)

register(
    Workload(
        name="matmul",
        title="guarded matrix multiply (Sec. 4, IF-inspection)",
        build=alg.matmul_guarded_ir,
        assumptions=lambda u: Assumptions().assume_ge("N", 1),
        pass_options={
            "if_inspection": {"loop": "K"},
            "jam": {"loop": "K", "unroll": 4},
        },
        default_passes=("if_inspection", "jam", "scalars"),
        verify_sizes={"N": 12},
        size_factory=_matmul_sizes,
    )
)
