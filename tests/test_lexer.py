"""The one-pattern lexer against the character loop it replaced.

`reference_tokenize` is the front end's former tokenizer, kept here as the
slow reference: it walks the source one character at a time and gives every
token its kind, text, line and column. (It differs from the old code in one
place: a comment advances the column, so the end of input after a trailing
comment is where the input ends.) On every drawn source, `frontend._tokenize`
must give the same texts and kinds, and `frontend._locate` the same line and
column for each token, or both must refuse the source with the same
`ParseError`.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from snarkpipe import frontend  # noqa: E402
from snarkpipe.frontend import MAX_LITERAL_DIGITS, ParseError  # noqa: E402

_PAIRS = (":=", "==", "!=")
_SINGLES = (",", ";", "+", "-", "*", "^", "(", ")")


def reference_tokenize(source: str) -> list:
    """(kind, text, line, col) of each token, closed by EOF."""
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
                col += 1
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
            tokens.append(("INT", text, line, col))
            col += len(text)
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            text = source[start:i]
            tokens.append(("IDENT", text, line, col))
            col += len(text)
            continue
        two = source[i : i + 2]
        if two in _PAIRS:
            tokens.append((two, two, line, col))
            i += 2
            col += 2
            continue
        if ch in _SINGLES:
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("EOF", "", line, col))
    return tokens


def outcome(tokenize, source):
    try:
        return tokenize(source)
    except ParseError as exc:
        return ("refused", exc.message, exc.line, exc.col, exc.code)


def pattern_tokens(source: str) -> list:
    texts, kinds = frontend._tokenize(source)
    return [
        (kind, text, *frontend._locate(source, index))
        for index, (kind, text) in enumerate(zip(kinds, texts, strict=True))
    ]


# Letters, digits and numerals of other scripts (isalpha, isdecimal, isdigit,
# isnumeric), the four whitespace characters and one that is not whitespace,
# every punctuation mark, and digit runs either side of the literal bound.
PIECES = (
    *"éß²½٣_ax01",
    " ", "\t", "\r", "\f", "\n", "#",
    *":=!,;+-*^()", *_PAIRS,
    "7" * MAX_LITERAL_DIGITS, "7" * (MAX_LITERAL_DIGITS + 1),
)
SOURCES = st.lists(st.sampled_from(PIECES), max_size=30).map("".join)


@settings(derandomize=True, deadline=None, max_examples=400, database=None)
@given(source=SOURCES)
@example(source="")
@example(source="inputs x; # no assertions")
@example(source="a\n# x\n  \t")
@example(source="x٣ ٣x")
def test_pattern_lexer_matches_the_character_loop(source):
    assert outcome(pattern_tokens, source) == outcome(reference_tokenize, source)
