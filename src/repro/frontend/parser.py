"""Recursive-descent parser for the Fortran subset.

Grammar (statement level)::

    procedure   := SUBROUTINE name ( params ) decls body END
    decl        := (DOUBLE PRECISION | REAL | INTEGER | LOGICAL) item {, item}
    item        := name [ ( dims ) ]
    stmt        := do | blockdo | indo | if | assign | CONTINUE
    do          := DO [label] var = e, e [, e]  body  (ENDDO | <label line>)
    blockdo     := BLOCK DO var = e, e          body  ENDDO
    indo        := IN name DO var [= e, e]      body  ENDDO
    if          := IF ( cond ) THEN body [ELSE body] ENDIF
                 | IF ( cond ) GOTO label        -- normalized, see below
                 | IF ( cond ) assign
    assign      := lvalue = e

``IF (c) GOTO label`` where ``label`` terminates the innermost open
labeled DO is the classic "skip the rest of this iteration" idiom
(Figs. 4 and 9); it parses as ``IF (.NOT. c)`` around the remaining body.
Expression precedence matches Fortran: ``.OR. < .AND. < .NOT. <
relational < +- < */ < unary- < **``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import ParseError
from repro.frontend.lexer import Line, Token, tokenize
from repro.ir.expr import (
    ArrayRef,
    BinOp,
    Call,
    Compare,
    Const,
    Expr,
    LogicalOp,
    Max,
    Min,
    Not,
    Var,
)
from repro.ir.stmt import (
    ArrayDecl,
    Assign,
    BlockLoop,
    If,
    InLoop,
    Loop,
    ParallelLoop,
    Procedure,
    Stmt,
)

_DECL_DTYPES = {
    "DOUBLEPRECISION": "f8",
    "REAL": "f4",
    "INTEGER": "i8",
    "LOGICAL": "i8",  # logicals are modeled as INTEGER 0/1
}

_INTRINSICS = {"SQRT", "DSQRT", "ABS", "DABS", "MOD", "DBLE", "REAL", "INT", "LAST"}

_REL = {
    ".EQ.": "eq", "==": "eq",
    ".NE.": "ne", "/=": "ne",
    ".LT.": "lt", "<": "lt",
    ".LE.": "le", "<=": "le",
    ".GT.": "gt", ">": "gt",
    ".GE.": "ge", ">=": "ge",
}


class _ExprParser:
    """Pratt parser over one line's token list."""

    def __init__(self, tokens: Sequence[Token], arrays: set[str], line: int):
        self.toks = list(tokens)
        self.pos = 0
        self.arrays = arrays
        self.line = line

    # -- token helpers ---------------------------------------------------
    def peek(self) -> Optional[Token]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of statement", line=self.line)
        self.pos += 1
        return t

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        t = self.peek()
        if t is not None and t.kind == kind and (text is None or t.text == text):
            self.pos += 1
            return t
        return None

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        t = self.accept(kind, text)
        if t is None:
            got = self.peek()
            raise ParseError(
                f"expected {text or kind}, got {got.text if got else 'end of line'}",
                line=self.line,
            )
        return t

    def at_end(self) -> bool:
        return self.pos >= len(self.toks)

    # -- grammar ----------------------------------------------------------
    def parse_expr(self) -> Expr:
        return self._or()

    def _or(self) -> Expr:
        left = self._and()
        args = [left]
        while self.accept("DOTOP", ".OR."):
            args.append(self._and())
        return args[0] if len(args) == 1 else LogicalOp("or", tuple(args))

    def _and(self) -> Expr:
        left = self._not()
        args = [left]
        while self.accept("DOTOP", ".AND."):
            args.append(self._not())
        return args[0] if len(args) == 1 else LogicalOp("and", tuple(args))

    def _not(self) -> Expr:
        if self.accept("DOTOP", ".NOT."):
            return Not(self._not())
        return self._relational()

    def _relational(self) -> Expr:
        left = self._additive()
        t = self.peek()
        if t is not None and (
            (t.kind == "DOTOP" and t.text in _REL) or (t.kind == "OP" and t.text in _REL)
        ):
            self.next()
            right = self._additive()
            return Compare(_REL[t.text], left, right)
        return left

    def _additive(self) -> Expr:
        t = self.peek()
        if t is not None and t.kind == "OP" and t.text in ("+", "-"):
            self.next()
            first = self._multiplicative()
            left: Expr = first if t.text == "+" else BinOp("-", Const(0), first)
        else:
            left = self._multiplicative()
        while True:
            t = self.peek()
            if t is None or t.kind != "OP" or t.text not in ("+", "-"):
                return left
            self.next()
            left = BinOp(t.text, left, self._multiplicative())

    def _multiplicative(self) -> Expr:
        left = self._power()
        while True:
            t = self.peek()
            if t is None or t.kind != "OP" or t.text not in ("*", "/"):
                return left
            self.next()
            left = BinOp(t.text, left, self._power())

    def _power(self) -> Expr:
        base = self._primary()
        if self.accept("OP", "**"):
            return BinOp("**", base, self._power())  # right associative
        return base

    def _primary(self) -> Expr:
        t = self.next()
        if t.kind == "INT":
            return Const(int(t.text))
        if t.kind == "FLOAT":
            return Const(float(t.text.upper().replace("D", "E")))
        if t.kind == "DOTOP" and t.text in (".TRUE.", ".FALSE."):
            return Const(1 if t.text == ".TRUE." else 0)
        if t.kind == "OP" and t.text == "(":
            e = self.parse_expr()
            self.expect("OP", ")")
            return e
        if t.kind == "OP" and t.text == "-":
            return BinOp("-", Const(0), self._primary())
        if t.kind == "NAME":
            if self.accept("OP", "("):
                args = [self.parse_expr()]
                while self.accept("OP", ","):
                    args.append(self.parse_expr())
                self.expect("OP", ")")
                if t.text == "MIN":
                    return Min(tuple(args))
                if t.text == "MAX":
                    return Max(tuple(args))
                if t.text in self.arrays:
                    return ArrayRef(t.text, tuple(args))
                if t.text in _INTRINSICS:
                    return Call(t.text, tuple(args))
                raise ParseError(
                    f"{t.text} is neither a declared array nor a known intrinsic",
                    line=self.line,
                )
            return Var(t.text)
        raise ParseError(f"unexpected token {t.text!r}", line=self.line)


class _StmtParser:
    def __init__(self, lines: list[Line], arrays: set[str]):
        self.lines = lines
        self.pos = 0
        self.arrays = arrays

    def peek(self) -> Optional[Line]:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def next_line(self) -> Line:
        line = self.peek()
        if line is None:
            raise ParseError("unexpected end of input")
        self.pos += 1
        return line

    # ------------------------------------------------------------------
    def parse_body(self, end_labels: tuple[str, ...] = (), stop_words: tuple[str, ...] = ()) -> tuple[Stmt, ...]:
        """Parse until a stop keyword or a line carrying one of
        ``end_labels`` (the labeled-DO terminator, which is consumed by the
        caller)."""
        out: list[Stmt] = []
        while True:
            line = self.peek()
            if line is None:
                if stop_words or end_labels:
                    raise ParseError("unterminated block")
                return tuple(out)
            first = line.tokens[0]
            if first.kind == "NAME" and first.text in stop_words:
                return tuple(out)
            if line.label is not None and line.label in end_labels:
                return tuple(out)
            stmt = self.parse_stmt(end_labels)
            if stmt is not None:
                if isinstance(stmt, _GuardSkip):
                    rest = self.parse_body(end_labels, stop_words)
                    out.append(If(_negate(stmt.cond), rest))
                    return tuple(out)
                out.append(stmt)

    def parse_stmt(self, end_labels: tuple[str, ...]) -> Optional[Stmt]:
        line = self.next_line()
        toks = line.tokens
        t0 = toks[0]
        if t0.is_name("CONTINUE"):
            return None
        if t0.is_name("DO"):
            return self._parse_do(line)
        if t0.is_name("PARALLEL"):
            return self._parse_parallel_do(line)
        if t0.is_name("BLOCK") and len(toks) > 1 and toks[1].is_name("DO"):
            return self._parse_block_do(line)
        if t0.is_name("IN"):
            return self._parse_in_do(line)
        if t0.is_name("IF"):
            return self._parse_if(line, end_labels)
        # assignment
        ep = _ExprParser(toks, self.arrays, line.number)
        target = ep._primary()
        if not isinstance(target, (ArrayRef, Var)):
            raise ParseError("invalid assignment target", line=line.number)
        ep.expect("OP", "=")
        value = ep.parse_expr()
        if not ep.at_end():
            raise ParseError("trailing tokens after assignment", line=line.number)
        return Assign(target, value, label=line.label)

    # ------------------------------------------------------------------
    def _parse_do(self, line: Line) -> Loop:
        toks = line.tokens[1:]
        label = None
        if toks and toks[0].kind == "INT":
            label = toks[0].text
            toks = toks[1:]
        ep = _ExprParser(toks, self.arrays, line.number)
        var = ep.expect("NAME").text
        ep.expect("OP", "=")
        lo = ep.parse_expr()
        ep.expect("OP", ",")
        hi = ep.parse_expr()
        step: Expr = Const(1)
        if ep.accept("OP", ","):
            step = ep.parse_expr()
        if not ep.at_end():
            raise ParseError("trailing tokens after DO", line=line.number)

        if label is not None:
            body = self.parse_body(end_labels=(label,))
            # The terminator line: a bare `label CONTINUE` is left in place
            # for enclosing DOs sharing the label (the outermost consumer
            # skips CONTINUEs).  A labeled *statement* terminator belongs
            # inside this loop; a synthetic CONTINUE replaces it so outer
            # loops still see their stop label.
            term = self.peek()
            if term is not None and term.label == label:
                if not term.tokens[0].is_name("CONTINUE"):
                    inner = self.parse_stmt(end_labels=())
                    if inner is not None:
                        body = body + (inner,)
                    self.lines.insert(
                        self.pos,
                        Line(label, [Token("NAME", "CONTINUE", term.number, 0)], term.number),
                    )
            return Loop(var, lo, hi, body, step=step, label=label)
        body = self.parse_body(stop_words=("ENDDO",))
        end = self.next_line()
        if not end.tokens[0].is_name("ENDDO"):
            raise ParseError("expected ENDDO", line=end.number)
        return Loop(var, lo, hi, body, step=step)

    def _parse_parallel_do(self, line: Line) -> ParallelLoop:
        toks = line.tokens[1:]
        kind = "parallel"
        if toks and toks[0].is_name("REDUCTION"):
            kind = "reduction"
            toks = toks[1:]
        if not toks or not toks[0].is_name("DO"):
            raise ParseError("expected DO after PARALLEL", line=line.number)
        ep = _ExprParser(toks[1:], self.arrays, line.number)
        var = ep.expect("NAME").text
        ep.expect("OP", "=")
        lo = ep.parse_expr()
        ep.expect("OP", ",")
        hi = ep.parse_expr()
        step: Expr = Const(1)
        if ep.accept("OP", ","):
            step = ep.parse_expr()
        if not ep.at_end():
            raise ParseError("trailing tokens after PARALLEL DO", line=line.number)
        body = self.parse_body(stop_words=("ENDDO",))
        end = self.next_line()
        if not end.tokens[0].is_name("ENDDO"):
            raise ParseError("expected ENDDO", line=end.number)
        return ParallelLoop(var, lo, hi, body, step=step, kind=kind)

    def _parse_block_do(self, line: Line) -> BlockLoop:
        ep = _ExprParser(line.tokens[2:], self.arrays, line.number)
        var = ep.expect("NAME").text
        ep.expect("OP", "=")
        lo = ep.parse_expr()
        ep.expect("OP", ",")
        hi = ep.parse_expr()
        body = self.parse_body(stop_words=("ENDDO",))
        self.next_line()
        return BlockLoop(var, lo, hi, body)

    def _parse_in_do(self, line: Line) -> InLoop:
        ep = _ExprParser(line.tokens[1:], self.arrays, line.number)
        block_var = ep.expect("NAME").text
        do_kw = ep.expect("NAME")
        if do_kw.text != "DO":
            raise ParseError("expected DO after IN <var>", line=line.number)
        var = ep.expect("NAME").text
        lo = hi = None
        if ep.accept("OP", "="):
            lo = ep.parse_expr()
            ep.expect("OP", ",")
            hi = ep.parse_expr()
        body = self.parse_body(stop_words=("ENDDO",))
        self.next_line()
        return InLoop(block_var, var, body, lo=lo, hi=hi)

    def _parse_if(self, line: Line, end_labels: tuple[str, ...]):
        ep = _ExprParser(line.tokens[1:], self.arrays, line.number)
        ep.expect("OP", "(")
        cond = ep.parse_expr()
        ep.expect("OP", ")")
        nxt = ep.peek()
        if nxt is not None and nxt.is_name("THEN"):
            ep.next()
            then = self.parse_body(stop_words=("ELSE", "ENDIF"))
            kw = self.next_line()
            if kw.tokens[0].is_name("ELSE"):
                els = self.parse_body(stop_words=("ENDIF",))
                self.next_line()
                return If(cond, then, els)
            return If(cond, then)
        if nxt is not None and nxt.is_name("GOTO"):
            ep.next()
            target = ep.expect("INT").text
            if target not in end_labels:
                raise ParseError(
                    f"GOTO {target}: only skips to the innermost enclosing "
                    "labeled-DO terminator are supported",
                    line=line.number,
                )
            return _GuardSkip(cond)
        # one-line logical IF: IF (c) stmt
        rest = line.tokens[1 + ep.pos :]
        sub = _ExprParser(rest, self.arrays, line.number)
        target = sub._primary()
        sub.expect("OP", "=")
        value = sub.parse_expr()
        if not isinstance(target, (ArrayRef, Var)):
            raise ParseError("invalid one-line IF statement", line=line.number)
        return If(cond, (Assign(target, value),))


class _GuardSkip:
    """Marker for ``IF (c) GOTO <loop end>``: skip rest of the iteration."""

    def __init__(self, cond: Expr):
        self.cond = cond


def _negate(cond: Expr) -> Expr:
    if isinstance(cond, Compare):
        return cond.negate()
    if isinstance(cond, Not):
        return cond.arg
    return Not(cond)


def parse_statements(source: str, arrays: Sequence[str] = ()) -> tuple[Stmt, ...]:
    """Parse a statement sequence (no SUBROUTINE wrapper).

    ``arrays`` names the identifiers to treat as arrays in subscript
    position."""
    lines = tokenize(source)
    parser = _StmtParser(lines, set(a.upper() for a in arrays))
    out: list[Stmt] = []
    while parser.peek() is not None:
        line = parser.peek()
        if line.tokens[0].is_name("CONTINUE"):
            parser.next_line()  # shared labeled terminator
            continue
        stmt = parser.parse_stmt(end_labels=())
        if stmt is not None:
            out.append(stmt)
    return tuple(out)


def parse_procedure(source: str) -> Procedure:
    """Parse a whole SUBROUTINE into a :class:`Procedure`."""
    lines = tokenize(source)
    if not lines:
        raise ParseError("empty source")
    head = lines[0]
    if not head.tokens[0].is_name("SUBROUTINE"):
        raise ParseError("expected SUBROUTINE", line=head.number)
    ep = _ExprParser(head.tokens[1:], set(), head.number)
    name = ep.expect("NAME").text
    params: list[str] = []
    if ep.accept("OP", "("):
        if not ep.accept("OP", ")"):
            params.append(ep.expect("NAME").text)
            while ep.accept("OP", ","):
                params.append(ep.expect("NAME").text)
            ep.expect("OP", ")")

    # declarations
    arrays: list[ArrayDecl] = []
    array_names: set[str] = set()
    body_start = 1
    for idx in range(1, len(lines)):
        line = lines[idx]
        kw = line.tokens[0]
        dtype_key = kw.text
        j = 1
        if kw.is_name("DOUBLE") and len(line.tokens) > 1 and line.tokens[1].is_name("PRECISION"):
            dtype_key = "DOUBLEPRECISION"
            j = 2
        if dtype_key not in _DECL_DTYPES:
            body_start = idx
            break
        dtype = _DECL_DTYPES[dtype_key]
        ep = _ExprParser(line.tokens[j:], array_names, line.number)
        while True:
            item = ep.expect("NAME").text
            if ep.accept("OP", "("):
                dims = [ep.parse_expr()]
                while ep.accept("OP", ","):
                    dims.append(ep.parse_expr())
                ep.expect("OP", ")")
                arrays.append(ArrayDecl(item, tuple(dims), dtype=dtype))
                array_names.add(item)
            # scalar declarations carry no IR node
            if not ep.accept("OP", ","):
                break
        body_start = idx + 1

    # body until END
    body_lines = []
    depth = 0
    for line in lines[body_start:]:
        if line.tokens[0].is_name("END") and len(line.tokens) == 1 and depth == 0:
            break
        body_lines.append(line)
    parser = _StmtParser(body_lines, array_names)
    out: list[Stmt] = []
    while parser.peek() is not None:
        line = parser.peek()
        if line.tokens[0].is_name("CONTINUE"):
            parser.next_line()
            continue
        stmt = parser.parse_stmt(end_labels=())
        if stmt is not None:
            out.append(stmt)

    # params: scalars only (arrays are separate declarations)
    scalar_params = tuple(p for p in params if p not in array_names)
    return Procedure(name, scalar_params, tuple(arrays), tuple(out))
