"""Figure regeneration (the paper's diagrams, as data + ASCII art).

Figures 1, 2 and 5 are *diagrams* in the paper; these helpers regenerate
them from the actual analyses: Fig. 1 by enumerating the strip-mined
triangular iteration space, Figs. 2 and 5 from computed array sections.
Both programs are strip-mined by the compiler from their point loops (Sec.
3.3's from its Fortran listing, Fig. 5's from the point LU).  The
code-listing figures (3, 4, 6, 7–11) are regenerated by running the
compiler; see the corresponding ``benchmarks/bench_fig*.py``.
"""

from __future__ import annotations

from repro.algorithms import lu_point_ir
from repro.analysis.refs import collect_accesses
from repro.analysis.sections import Section, section_of_ref
from repro.frontend import parse_procedure
from repro.ir.expr import Var
from repro.ir.stmt import Loop, Procedure
from repro.ir.visit import loop_by_var
from repro.symbolic.assume import Assumptions
from repro.transform import strip_mine


def figure1_iteration_space(n: int = 12, strip: int = 4, alpha: int = 1, beta: int = 0):
    """Fig. 1: the upper-left triangular space of the strip-mined loop
    ``DO I=1,N,IS / DO II=I,I+IS-1 / DO J=alpha*II+beta, M``.

    Returns (points, ascii_art): points is the set of executed (II, J)
    pairs; the art marks strip boundaries the way Fig. 1 draws them."""
    m = alpha * n + beta
    points = set()
    for i in range(1, n + 1, strip):
        for ii in range(i, min(i + strip - 1, n) + 1):
            for j in range(alpha * ii + beta, m + 1):
                points.add((ii, j))
    lines = []
    for j in range(m, 0, -1):  # J grows upward, like the figure
        row = []
        for ii in range(1, n + 1):
            if (ii, j) in points:
                row.append("#" if (ii - 1) % strip == 0 else "*")
            else:
                row.append(".")
        lines.append(f"J={j:3d} " + "".join(row))
    lines.append("      " + "".join(str(ii % 10) for ii in range(1, n + 1)))
    return points, "\n".join(lines)


#: Sec. 3.3's loop before strip mining
SEC33_POINT = """\
      SUBROUTINE sec33(N, IS)
      DOUBLE PRECISION A(N), T(N)
      DO I = 1, N
        T(I) = A(I)
        DO K = I, N
          A(K) = A(K) + T(I)
        ENDDO
      ENDDO
      END
"""


def _strip_mined(proc: Procedure, var: str, factor: str) -> tuple[Procedure, Loop]:
    """``proc`` with loop ``var`` strip-mined by ``factor`` into
    ``{var}{var}``; returns (procedure, strip loop)."""
    proc, info = strip_mine(proc, loop_by_var(proc.body, var), factor)
    return proc, loop_by_var(proc.body, info.strip_var)


def sec33_procedure() -> tuple[Procedure, Loop]:
    """The Sec. 3.3 strip-mined example; returns (procedure, II loop)."""
    return _strip_mined(parse_procedure(SEC33_POINT), "I", "IS")


def figure2_sections() -> dict[str, Section]:
    """Fig. 2: the data space of A in the Sec. 3.3 loop — the section read
    by A(II) spans I..I+IS-1, the section written by A(K) spans I..N."""
    proc, ii = sec33_procedure()
    ctx = Assumptions().assume_ge("IS", 1).assume_ge("I", 1).assume_le("I", Var("N"))
    out: dict[str, Section] = {}
    for acc in collect_accesses(proc):
        if acc.array != "A":
            continue
        key = ("write " if acc.is_write else "read ") + f"A({acc.ref.index[0]!r})"
        sec = section_of_ref(acc, region_loop=ii, ctx=ctx)
        if sec is not None:
            out[key] = sec
    return out


def figure5_sections() -> dict[str, Section]:
    """Fig. 5: sections of A over a whole KK block of strip-mined LU —
    statement 20 (the panel) vs statement 10 (the trailing update)."""
    proc, kk = _strip_mined(lu_point_ir(), "K", "KS")
    ctx = Assumptions().assume_ge("KS", 2).assume_ge("K", 1)
    accs = collect_accesses(proc)
    stmt20_w = next(a for a in accs if a.is_write and a.ref.index == (Var("I"), Var("KK")))
    stmt10_w = next(a for a in accs if a.is_write and a.ref.index == (Var("I"), Var("J")))
    return {
        "stmt 20 writes A(I,KK)": section_of_ref(stmt20_w, kk, ctx),
        "stmt 10 writes A(I,J)": section_of_ref(stmt10_w, kk, ctx),
    }
