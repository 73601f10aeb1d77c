"""Front end for the polynomial assertion language.

A source file declares input variables, defines named polynomials over them
in straight-line fashion, and asserts that each named output is zero or
nonzero. Grammar (comments run from '#' to end of line, files use the
``.zkp`` extension):

    program    := "inputs" ident ("," ident)* ";" definition* assertion+
    definition := ident ":=" expr ";"
    assertion  := "assert" ident ("==" | "!=") "0" ";"
    expr       := term (("+" | "-") term)*
    term       := factor ("*" factor)*
    factor     := ["-"] (integer | ident | "(" expr ")") ["^" integer]

Subtraction and unary minus are desugared to Add/Neg while parsing; powers
survive as Pow nodes and melt into repeated multiplication later. The name
``one`` is reserved for the constant-one symbol of the compiled form.

Integers are ASCII digits 0-9 only, at most MAX_LITERAL_DIGITS of them (the
interpreter's own limit on decimal conversion). The parser bounds its work
before any gate exists: parentheses nest at most MAX_NESTING deep, and a
program may flatten to at most MAX_GATES gates, which it counts exactly as it
reads (``x^k`` is k-1 gates).
"""

from __future__ import annotations

import enum
import warnings
from collections import namedtuple

from .field import MAX_GATES, FieldContext, _quote

__all__ = [
    "Add",
    "ConditionCheck",
    "Constant",
    "EvalResult",
    "Expression",
    "FieldReductionWarning",
    "Mul",
    "Neg",
    "ParseError",
    "Pow",
    "Program",
    "Relation",
    "Variable",
    "eval_program",
    "format_program",
    "parse_program",
]

RESERVED_NAMES = frozenset({"one", "inputs", "assert"})
MAX_NESTING = 32
MAX_LITERAL_DIGITS = 4300


class FieldReductionWarning(UserWarning):
    """An integer constant exceeded the modulus and was reduced."""


class ParseError(ValueError):
    """Parse or validation failure with source position and a stable code.

    Codes: ``syntax``, ``unknown-identifier``, ``forward-reference``,
    ``bad-exponent``, ``duplicate-name``, ``reserved-name``,
    ``bad-assertion-target``, ``too-deep``, ``too-many-gates``, ``too-long``.
    """

    def __init__(self, message: str, line: int, col: int, code: str = "syntax"):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.code = code


class Relation(enum.Enum):
    EQUAL_ZERO = "eq0"
    NOT_EQUAL_ZERO = "neq0"

    def holds(self, value: int) -> bool:
        return (value == 0) == (self is Relation.EQUAL_ZERO)


class Expression(tuple):
    """Base class of the expression tree nodes, which are named tuples.

    A node equals only a node of its own type with equal fields, so
    ``Add((x, y)) != Mul((x, y))``; the hash takes the type in too.
    """

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((type(self), tuple.__hash__(self)))


class Constant(Expression, namedtuple("Constant", "value")):
    __slots__ = ()


class Variable(Expression, namedtuple("Variable", "name")):
    __slots__ = ()


class Add(Expression, namedtuple("Add", "terms")):
    __slots__ = ()


class Mul(Expression, namedtuple("Mul", "factors")):
    __slots__ = ()


class Neg(Expression, namedtuple("Neg", "operand")):
    __slots__ = ()


class Pow(Expression, namedtuple("Pow", "base exponent")):
    __slots__ = ()


Program = namedtuple(
    "Program",
    (
        "inputs",
        "definitions",  # of (name, Expression)
        "conditions",  # of (name, Relation)
    ),
)


# --- lexer -----------------------------------------------------------------

_PAIRS = (":=", "==", "!=")
_SINGLES = (",", ";", "+", "-", "*", "^", "(", ")")

# kind is IDENT, INT, the punctuation itself or EOF
_Token = namedtuple("_Token", "kind text line col")


def _tokenize(source: str) -> list:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if "0" <= ch <= "9":
            start = i
            while i < n and "0" <= source[i] <= "9":
                i += 1
            text = source[start:i]
            if len(text) > MAX_LITERAL_DIGITS:
                raise ParseError(
                    f"integer literal has {len(text)} digits,"
                    f" more than {MAX_LITERAL_DIGITS}",
                    line,
                    col,
                    "too-long",
                )
            tokens.append(_Token("INT", text, line, col))
            col += len(text)
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            tokens.append(_Token("IDENT", text, line, col))
            col += len(text)
            continue
        two = source[i : i + 2]
        if two in _PAIRS:
            tokens.append(_Token(two, two, line, col))
            i += 2
            col += 2
            continue
        if ch in _SINGLES:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# --- parser ----------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self._positions: dict = {}
        self.depth = 0
        self.gates = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            want = what or f"'{kind}'"
            got = "end of input" if tok.kind == "EOF" else f"{tok.text!r}"
            raise ParseError(f"expected {want}, found {got}", tok.line, tok.col)
        return self.advance()

    def spend(self, gates: int, tok: _Token) -> None:
        """Count gates the flattened program will have, refusing past MAX_GATES."""
        self.gates += gates
        if self.gates > MAX_GATES:
            raise ParseError(
                f"program flattens to more than {MAX_GATES} gates",
                tok.line,
                tok.col,
                "too-many-gates",
            )

    def parse(self) -> Program:
        kw = self.expect("IDENT", "keyword 'inputs'")
        if kw.text != "inputs":
            raise ParseError(
                f"program must start with 'inputs', found {kw.text!r}", kw.line, kw.col
            )
        inputs = [self._input_name()]
        while self.peek().kind == ",":
            self.advance()
            inputs.append(self._input_name())
        self.expect(";")

        definitions = []
        conditions = []
        seen_assert = False
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind != "IDENT":
                raise ParseError(
                    f"expected a definition or assertion, found {tok.text!r}",
                    tok.line,
                    tok.col,
                )
            if tok.text == "assert":
                seen_assert = True
                conditions.append(self._assertion())
            elif seen_assert:
                raise ParseError(
                    "definitions must precede assertions", tok.line, tok.col
                )
            else:
                definitions.append(self._definition())
        if not conditions:
            tok = self.peek()
            raise ParseError("program needs at least one assertion", tok.line, tok.col)
        program = Program(tuple(inputs), tuple(definitions), tuple(conditions))
        _validate(program, self._positions)
        return program

    def _input_name(self) -> str:
        tok = self.expect("IDENT", "input name")
        self._note_name(tok)
        return tok.text

    def _note_name(self, tok: _Token) -> None:
        if tok.text in RESERVED_NAMES:
            raise ParseError(
                f"{tok.text!r} is a reserved name", tok.line, tok.col, "reserved-name"
            )
        self._positions.setdefault(("name", tok.text), (tok.line, tok.col))

    def _definition(self):
        name = self.expect("IDENT", "definition name")
        self._note_name(name)
        self.expect(":=")
        before = self.gates
        expr = self._expr()
        if self.gates == before and not any(_referenced(expr)):
            self.spend(1, name)  # flatten wraps a constant in a gate
        self.expect(";")
        self._positions[("def", name.text)] = (name.line, name.col)
        return (name.text, expr)

    def _assertion(self):
        self.expect("IDENT")  # the 'assert' keyword, checked by caller
        name = self.expect("IDENT", "polynomial name")
        op = self.peek()
        if op.kind not in ("==", "!="):
            raise ParseError(
                f"expected '==' or '!=', found {op.text!r}", op.line, op.col
            )
        self.advance()
        zero = self.expect("INT", "literal 0")
        if zero.text != "0":
            raise ParseError(
                "assertions compare against literal 0", zero.line, zero.col
            )
        self.expect(";")
        self.spend(1, name)  # the condition gate
        relation = Relation.EQUAL_ZERO if op.kind == "==" else Relation.NOT_EQUAL_ZERO
        self._positions[("cond", name.text)] = (name.line, name.col)
        self._positions.setdefault(("use", name.text), (name.line, name.col))
        return (name.text, relation)

    def _expr(self) -> Expression:
        terms = [self._term()]
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            self.spend(2 if op.kind == "-" else 1, op)  # Plus, and Times by -1
            term = self._term()
            terms.append(Neg(term) if op.kind == "-" else term)
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def _term(self) -> Expression:
        factors = [self._factor()]
        while self.peek().kind == "*":
            self.spend(1, self.advance())
            factors.append(self._factor())
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))

    def _factor(self) -> Expression:
        negated = False
        if self.peek().kind == "-":
            self.spend(1, self.advance())
            negated = True
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            node: Expression = Constant(int(tok.text))
        elif tok.kind == "IDENT":
            if tok.text in ("assert", "inputs"):
                raise ParseError(
                    f"keyword {tok.text!r} cannot appear in an expression",
                    tok.line,
                    tok.col,
                )
            self.advance()
            self._positions.setdefault(("use", tok.text), (tok.line, tok.col))
            node = Variable(tok.text)
        elif tok.kind == "(":
            self.advance()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(
                    f"parentheses nest deeper than {MAX_NESTING}",
                    tok.line,
                    tok.col,
                    "too-deep",
                )
            node = self._expr()
            self.expect(")")
            self.depth -= 1
        else:
            got = "end of input" if tok.kind == "EOF" else f"{tok.text!r}"
            raise ParseError(f"expected a value, found {got}", tok.line, tok.col)
        if self.peek().kind == "^":
            caret = self.advance()
            exp_tok = self.peek()
            if exp_tok.kind != "INT":
                raise ParseError(
                    "exponent must be a positive integer",
                    caret.line,
                    caret.col,
                    "bad-exponent",
                )
            self.advance()
            exponent = int(exp_tok.text)
            if exponent < 1:
                raise ParseError(
                    "exponent must be at least 1",
                    exp_tok.line,
                    exp_tok.col,
                    "bad-exponent",
                )
            self.spend(exponent - 1, exp_tok)
            node = Pow(node, exponent)
        return Neg(node) if negated else node


def _referenced(expr: Expression):
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Variable):
            yield node.name
        elif isinstance(node, Add):
            stack.extend(node.terms)
        elif isinstance(node, Mul):
            stack.extend(node.factors)
        elif isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, Pow):
            stack.append(node.base)


def _validate(program: Program, positions: dict) -> None:
    def where(key, name):
        return positions.get((key, name)) or positions.get(("use", name)) or (0, 0)

    seen = set()
    for name in program.inputs:
        if name in seen:
            line, col = where("name", name)
            raise ParseError(
                f"duplicate input {name!r}", line, col, "duplicate-name"
            )
        seen.add(name)

    all_defs = {name for name, _ in program.definitions}
    known = set(program.inputs)
    for name, expr in program.definitions:
        if name in seen:
            line, col = where("def", name)
            raise ParseError(
                f"{name!r} is already defined", line, col, "duplicate-name"
            )
        for ref in _referenced(expr):
            if ref in known:
                continue
            line, col = where("use", ref)
            if ref in all_defs:
                raise ParseError(
                    f"{ref!r} is used before its definition",
                    line,
                    col,
                    "forward-reference",
                )
            raise ParseError(
                f"unknown identifier {ref!r}", line, col, "unknown-identifier"
            )
        known.add(name)
        seen.add(name)

    for name, _relation in program.conditions:
        if name not in all_defs:
            line, col = where("cond", name)
            if name in program.inputs:
                raise ParseError(
                    f"assertion target {name!r} is an input, not a definition",
                    line,
                    col,
                    "bad-assertion-target",
                )
            raise ParseError(
                f"unknown identifier {name!r}", line, col, "unknown-identifier"
            )


def parse_program(source: str) -> Program:
    return _Parser(source).parse()


# --- pretty printer ---------------------------------------------------------


def _format_expr(expr: Expression, parent: str = "top") -> str:
    if isinstance(expr, Constant):
        return str(expr.value)
    if isinstance(expr, Variable):
        return expr.name
    # A factor is [-] primary [^k]: a negated negation and the base of a
    # power other than a name or an integer need parentheses.
    if isinstance(expr, Neg):
        inner = _format_expr(expr.operand, "neg")
        return f"-({inner})" if isinstance(expr.operand, Neg) else f"-{inner}"
    if isinstance(expr, Pow):
        base = _format_expr(expr.base, "pow")
        if isinstance(expr.base, (Neg, Pow)):
            base = f"({base})"
        return f"{base}^{expr.exponent}"
    if isinstance(expr, Mul):
        text = "*".join(_format_expr(f, "mul") for f in expr.factors)
        return f"({text})" if parent in ("mul", "neg", "pow") else text
    if isinstance(expr, Add):
        parts = [_format_expr(expr.terms[0], "add")]
        for term in expr.terms[1:]:
            if isinstance(term, Neg):
                parts.append(f" - {_format_expr(term.operand, 'neg')}")
            else:
                parts.append(f" + {_format_expr(term, 'add')}")
        text = "".join(parts)
        return f"({text})" if parent != "top" else text
    raise TypeError(f"not an expression node: {expr!r}")


def format_program(program: Program) -> str:
    lines = [f"inputs {', '.join(program.inputs)};"]
    for name, expr in program.definitions:
        lines.append(f"{name} := {_format_expr(expr)};")
    for name, relation in program.conditions:
        op = "==" if relation is Relation.EQUAL_ZERO else "!="
        lines.append(f"assert {name} {op} 0;")
    return "\n".join(lines) + "\n"


# --- evaluation -------------------------------------------------------------


def reduce_constant(value: int, ctx: FieldContext, warned: set) -> int:
    """Map a source integer into the field, warning once per oversized value;
    `warned` holds the values already warned about."""
    if 0 <= value < ctx.p:
        return value
    if value not in warned:
        warnings.warn(
            f"integer constant {value} exceeds the field modulus {ctx.p}"
            " and was reduced",
            FieldReductionWarning,
            stacklevel=3,
        )
        warned.add(value)
    return value % ctx.p


ConditionCheck = namedtuple("ConditionCheck", "name relation holds")


class EvalResult(
    namedtuple(
        "EvalResult",
        (
            "values",  # name -> residue in [0, p), every definition
            "conditions",  # of ConditionCheck
        ),
    )
):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(check.holds for check in self.conditions)


def _eval_expr(expr: Expression, env: dict, ctx: FieldContext, warned: set) -> int:
    p = ctx.p
    if isinstance(expr, Constant):
        return reduce_constant(expr.value, ctx, warned)
    if isinstance(expr, Variable):
        return env[expr.name]
    if isinstance(expr, Neg):
        return (-_eval_expr(expr.operand, env, ctx, warned)) % p
    if isinstance(expr, Add):
        total = 0
        for term in expr.terms:
            total += _eval_expr(term, env, ctx, warned)
        return total % p
    if isinstance(expr, Mul):
        total = 1
        for factor in expr.factors:
            total = total * _eval_expr(factor, env, ctx, warned) % p
        return total
    if isinstance(expr, Pow):
        return pow(_eval_expr(expr.base, env, ctx, warned), expr.exponent, p)
    raise TypeError(f"not an expression node: {expr!r}")


def require_inputs(declared, supplied) -> None:
    """Refuse an input map whose names differ from the declared inputs,
    naming every missing and every unexpected one (each list quoted and cut
    to a short line)."""
    missing = sorted(set(declared) - set(supplied))
    extra = sorted(set(supplied) - set(declared))
    problems = []
    if missing:
        problems.append(f"missing inputs: {_quote(', '.join(missing))}")
    if extra:
        problems.append(f"unexpected inputs: {_quote(', '.join(extra))}")
    if problems:
        raise ValueError("; ".join(problems))


def eval_program(program: Program, inputs: dict, ctx: FieldContext) -> EvalResult:
    """Tree-walk every definition in order and check each condition.

    This is the reference semantics the compiled forms are tested against.
    """
    require_inputs(program.inputs, inputs)
    env = {name: value % ctx.p for name, value in inputs.items()}
    warned: set = set()
    values = {}
    for name, expr in program.definitions:
        values[name] = env[name] = _eval_expr(expr, env, ctx, warned)
    checks = tuple(
        ConditionCheck(name, relation, relation.holds(env[name]))
        for name, relation in program.conditions
    )
    return EvalResult(values, checks)
