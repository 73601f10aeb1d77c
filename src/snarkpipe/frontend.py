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

Names start with a letter (by str.isalpha) or "_" and continue by
str.isalnum or "_". Integers are ASCII digits 0-9 only, at most
MAX_LITERAL_DIGITS of them (the interpreter's own limit on decimal
conversion). Whitespace is space, tab, CR and newline. The parser bounds
its work before any gate exists: parentheses nest at most MAX_NESTING deep,
and a program may flatten to at most MAX_GATES gates, which it counts
exactly as it reads (``x^k`` is k-1 gates).
"""

from __future__ import annotations

import enum
import re
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

# Whitespace (space, tab, CR, newline) and comments before a token are
# skipped; a token is an ASCII digit run, a run of word characters (those of
# str.isalnum, and "_"), a two-character operator, any other character, which
# _tokenize refuses, or the empty end of input.
_TOKEN = re.compile(r"(?:[ \t\r\n]|#[^\n]*)*([0-9]+|\w+|:=|==|!=|.|\Z)")
_PUNCTUATION = frozenset((":=", "==", "!=", ",", ";", "+", "-", "*", "^", "(", ")"))


def _locate(source: str, index: int) -> tuple:
    """Line and column of token `index`; columns count code points, a tab as one."""
    for k, match in enumerate(_TOKEN.finditer(source)):
        if k == index:
            break
    offset = match.start(1)
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _tokenize(source: str) -> tuple:
    """The token texts and their kinds, each IDENT, INT or the punctuation
    itself, closed by an EOF token whose text is empty."""
    texts = _TOKEN.findall(source)
    if len(texts) > 1 and not texts[-2]:
        del texts[-1]  # skipped text at the end matched once, and then nothing
    kinds = []
    for index, text in enumerate(texts):
        if text in _PUNCTUATION:
            kinds.append(text)
            continue
        first = text[:1]
        if first.isalpha() or first == "_":
            kinds.append("IDENT")
        elif "0" <= first <= "9":
            if len(text) > MAX_LITERAL_DIGITS:
                raise ParseError(
                    f"integer literal has {len(text)} digits,"
                    f" more than {MAX_LITERAL_DIGITS}",
                    *_locate(source, index),
                    "too-long",
                )
            kinds.append("INT")
        elif text:
            raise ParseError(f"unexpected character {first!r}", *_locate(source, index))
        else:
            kinds.append("EOF")
    return texts, kinds


# --- parser ----------------------------------------------------------------

_RELATIONS = {"==": Relation.EQUAL_ZERO, "!=": Relation.NOT_EQUAL_ZERO}


class _Parser:
    """Walks the token lists by index; a name's position is kept as the index
    of its token and turned into a line and column only for an error."""

    def __init__(self, source: str):
        self.source = source
        self.texts, self.kinds = _tokenize(source)
        self.pos = 0
        self.defs: list = []  # the name token of each definition, in order
        self.conds: list = []  # the target token of each assertion, in order
        self.uses: dict = {}  # name -> its first use in an expression
        self.depth = 0
        self.gates = 0

    def error(self, message: str, index: int, code: str = "syntax") -> ParseError:
        return ParseError(message, *_locate(self.source, index), code)

    def found(self, index: int) -> str:
        return "end of input" if self.kinds[index] == "EOF" else repr(self.texts[index])

    def expect(self, kind: str, what: str | None = None) -> int:
        pos = self.pos
        if self.kinds[pos] != kind:
            want = what or f"'{kind}'"
            raise self.error(f"expected {want}, found {self.found(pos)}", pos)
        self.pos = pos + 1
        return pos

    def spend(self, gates: int, index: int) -> None:
        """Count gates the flattened program will have, refusing past MAX_GATES."""
        self.gates += gates
        if self.gates > MAX_GATES:
            raise self.error(
                f"program flattens to more than {MAX_GATES} gates", index, "too-many-gates"
            )

    def parse(self) -> Program:
        texts, kinds = self.texts, self.kinds
        kw = self.expect("IDENT", "keyword 'inputs'")
        if texts[kw] != "inputs":
            raise self.error(f"program must start with 'inputs', found {texts[kw]!r}", kw)
        inputs = [self._name(self.expect("IDENT", "input name"))]
        while kinds[self.pos] == ",":
            self.pos += 1
            inputs.append(self._name(self.expect("IDENT", "input name")))
        self.expect(";")

        definitions = []
        conditions = []
        while kinds[self.pos] != "EOF":
            pos = self.pos
            if kinds[pos] != "IDENT":
                raise self.error(
                    f"expected a definition or assertion, found {texts[pos]!r}", pos
                )
            if texts[pos] == "assert":
                conditions.append(self._assertion())
            elif conditions:
                raise self.error("definitions must precede assertions", pos)
            else:
                definitions.append(self._definition())
        if not conditions:
            raise self.error("program needs at least one assertion", self.pos)
        program = Program(tuple(inputs), tuple(definitions), tuple(conditions))
        self._validate(program)
        return program

    def _name(self, index: int) -> str:
        text = self.texts[index]
        if text in RESERVED_NAMES:
            raise self.error(f"{text!r} is a reserved name", index, "reserved-name")
        return text

    def _definition(self):
        index = self.expect("IDENT", "definition name")
        name = self._name(index)
        self.expect(":=")
        before = self.gates
        expr = self._expr()
        if self.gates == before and not any(_referenced(expr)):
            self.spend(1, index)  # flatten wraps a constant in a gate
        self.expect(";")
        self.defs.append(index)
        return (name, expr)

    def _assertion(self):
        self.pos += 1  # the 'assert' keyword, checked by caller
        index = self.expect("IDENT", "polynomial name")
        op = self.pos
        relation = _RELATIONS.get(self.kinds[op])
        if relation is None:
            raise self.error(f"expected '==' or '!=', found {self.found(op)}", op)
        self.pos += 1
        zero = self.expect("INT", "literal 0")
        if self.texts[zero] != "0":
            raise self.error("assertions compare against literal 0", zero)
        self.expect(";")
        self.spend(1, index)  # the condition gate
        self.conds.append(index)
        return (self.texts[index], relation)

    def _expr(self) -> Expression:
        kinds = self.kinds
        terms = [self._term()]
        while kinds[self.pos] in ("+", "-"):
            op = self.pos
            self.pos += 1
            minus = kinds[op] == "-"
            self.spend(2 if minus else 1, op)  # Plus, and Times by -1
            term = self._term()
            terms.append(Neg(term) if minus else term)
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def _term(self) -> Expression:
        kinds = self.kinds
        factors = [self._factor()]
        while kinds[self.pos] == "*":
            self.pos += 1
            self.spend(1, self.pos - 1)
            factors.append(self._factor())
        return factors[0] if len(factors) == 1 else Mul(tuple(factors))

    def _factor(self) -> Expression:
        texts, kinds = self.texts, self.kinds
        pos = self.pos
        negated = kinds[pos] == "-"
        if negated:
            self.pos = pos + 1
            self.spend(1, pos)
            pos += 1
        kind = kinds[pos]
        if kind == "IDENT":
            text = texts[pos]
            if text in ("assert", "inputs"):
                raise self.error(f"keyword {text!r} cannot appear in an expression", pos)
            self.pos = pos + 1
            self.uses.setdefault(text, pos)
            node: Expression = Variable(text)
        elif kind == "INT":
            self.pos = pos + 1
            node = Constant(int(texts[pos]))
        elif kind == "(":
            self.pos = pos + 1
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise self.error(
                    f"parentheses nest deeper than {MAX_NESTING}", pos, "too-deep"
                )
            node = self._expr()
            self.expect(")")
            self.depth -= 1
        else:
            raise self.error(f"expected a value, found {self.found(pos)}", pos)
        if kinds[self.pos] == "^":
            caret = self.pos
            exp = caret + 1
            if kinds[exp] != "INT":
                raise self.error("exponent must be a positive integer", caret, "bad-exponent")
            self.pos = exp + 1
            exponent = int(texts[exp])
            if exponent < 1:
                raise self.error("exponent must be at least 1", exp, "bad-exponent")
            self.spend(exponent - 1, exp)
            node = Pow(node, exponent)
        return Neg(node) if negated else node

    def _validate(self, program: Program) -> None:
        seen = set()
        for k, name in enumerate(program.inputs):
            if name in seen:
                # "inputs" is token 0, and the names and commas alternate after it
                raise self.error(f"duplicate input {name!r}", 2 * k + 1, "duplicate-name")
            seen.add(name)

        all_defs = {name for name, _ in program.definitions}
        known = set(program.inputs)
        for (name, expr), index in zip(program.definitions, self.defs):
            if name in seen:
                raise self.error(f"{name!r} is already defined", index, "duplicate-name")
            for ref in _referenced(expr):
                if ref in known:
                    continue
                if ref in all_defs:
                    raise self.error(
                        f"{ref!r} is used before its definition",
                        self.uses[ref],
                        "forward-reference",
                    )
                raise self.error(
                    f"unknown identifier {ref!r}", self.uses[ref], "unknown-identifier"
                )
            known.add(name)
            seen.add(name)

        for (name, _relation), index in zip(program.conditions, self.conds):
            if name not in all_defs:
                if name in program.inputs:
                    raise self.error(
                        f"assertion target {name!r} is an input, not a definition",
                        index,
                        "bad-assertion-target",
                    )
                raise self.error(f"unknown identifier {name!r}", index, "unknown-identifier")


def _referenced(expr: Expression):
    """The names an expression uses, in source order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Variable):
            yield node.name
        elif isinstance(node, Add):
            stack.extend(reversed(node.terms))
        elif isinstance(node, Mul):
            stack.extend(reversed(node.factors))
        elif isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, Pow):
            stack.append(node.base)


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
