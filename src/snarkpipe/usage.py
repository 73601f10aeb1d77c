"""The argparse classes the command-line parsers are built from.

The CLI reads a plain command line from its flag table without argparse
(``cli._read_command_line``). Help, every usage error and the forms that
reader leaves alone go to parsers of these classes, built from the same
table, so this module, and argparse with the gettext and locale lookups
behind it, is imported only on that route.
"""

from __future__ import annotations

import argparse
import os
import sys

from .field import _quote, parse_decimal

__all__ = ["Formatter", "Parser", "canonical_decimal"]


def _terminal_columns() -> int:
    """shutil.get_terminal_size().columns, fallback 80 included: COLUMNS if
    it is a positive integer, else the width of the terminal on stdout."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return columns or 80


class Formatter(argparse.RawDescriptionHelpFormatter):
    """argparse's help layout, descriptions and epilogs kept as written.

    argparse builds a formatter for every argument a parser adds, only to
    check its metavar, and its own formatter looks up the terminal width in
    each, importing shutil, with zlib, bz2, lzma and fnmatch behind it. This
    one looks the width up when it lays out a text: every help, usage and
    error text goes through format_help.
    """

    def __init__(self, prog, indent_increment=2, max_help_position=24, width=None, **kwargs):
        super().__init__(prog, indent_increment, max_help_position, 0, **kwargs)
        self._layout = (max_help_position, width)

    def format_help(self):
        max_help_position, width = self._layout
        if width is None:
            width = _terminal_columns() - 2
        # the two attributes HelpFormatter.__init__ derives from the width
        self._width = width
        self._max_help_position = min(
            max_help_position, max(width - 20, self._indent_increment * 2)
        )
        return super().format_help()


class Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(formatter_class=Formatter, **kwargs)

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
