"""The argparse classes the command-line parsers are built from.

The CLI reads a plain command line from its flag table without argparse
(``cli._read_command_line``). Help, every usage error and the forms that
reader leaves alone go to parsers of these classes, built from the same
table, so this module, and argparse with the gettext and locale lookups
behind it, is imported only on that route.
"""

from __future__ import annotations

import argparse
import sys

from .field import _quote, parse_decimal

__all__ = ["Parser", "canonical_decimal"]


class Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(formatter_class=argparse.RawDescriptionHelpFormatter, **kwargs)

    # Usage problems exit 1, the CLI's usage code; plain argparse would exit
    # 2, which the CLI reserves for verification rejects.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def canonical_decimal(text: str) -> int:
    """argparse type of every numeric flag: one canonical decimal."""
    try:
        return parse_decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a canonical decimal: {_quote(text)}") from None
