"""Reading a command line against a table of commands and their flags.

``cli.COMMANDS`` is the table: ``parse`` walks an argv against it and
``usage`` writes help from it, so no flag is named in two places.  Each
command's row is its handler, its help line, the arguments it requires
(a name without dashes is positional) with their choices, and its flags.
A flag is a switch (``bool``), a tuple of choices whose first is its
default, or a converter of its value, whose default is None.  The
syntax is argparse's without abbreviations: ``--flag value`` or
``--flag=value``, flags in any order around a positional, and the last of
a repeated flag wins.  A token that starts with a dash is a flag unless
argparse too would read it as a value: ``-``, a negative number, or text
with a space.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace


class UsageError(Exception):
    pass


def quoted(text: str) -> str:
    """``repr(text)``, or a short prefix of it if it is long: a usage error is one short line."""
    shown = repr(text)
    return shown if len(shown) <= 40 else f"{shown[:32]}... ({len(text)} characters)"


def _ints(parts: list[str], text: str, expected: str) -> list[int]:
    """``int`` of each part of ``text``, or a ValueError saying what was ``expected``."""
    try:
        return [int(part) for part in parts]
    except ValueError:
        # int() refuses a literal past Python's digit limit (none before
        # 3.10.7), so name the limit rather than call a long value malformed.
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if limit and max(map(len, parts)) > limit:
            expected += f" of at most {limit} digits"
        raise ValueError(f"expected {expected}, got {quoted(text)}") from None


def int_list(text: str) -> tuple[int, ...]:
    return tuple(_ints(text.split(","), text, "comma-separated integers"))


def integer(text: str) -> int:
    return _ints([text], text, "an integer")[0]


def nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise ValueError(f"expected a nonnegative integer, got {quoted(text)}")
    return _ints([text], text, "a nonnegative integer")[0]


_HELP = ("-h", "--help")
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_flag(token: str, options: dict) -> bool:
    """Whether ``token`` reads as a flag, known (before any ``=``) or not."""
    if token.partition("=")[0] in options:
        return True
    return (
        token.startswith("-") and token != "-" and " " not in token
        and not _NEGATIVE_NUMBER.match(token)
    )


def _convert(name: str, kind, value: str):
    if isinstance(kind, tuple):
        if value not in kind:
            choices = ", ".join(map(repr, kind))
            shown = quoted(value)
            raise UsageError(f"argument {name}: invalid choice: {shown} (choose from {choices})")
        return value
    try:
        return kind(value)
    except ValueError as exc:
        raise UsageError(f"argument {name}: {exc}") from None


def parse(argv, commands: dict, help_fn) -> SimpleNamespace:
    """The arguments of one command line, read against ``commands``.

    The namespace holds ``command``, its handler ``fn``, its required
    arguments, and every flag of the command, at its default if not given.
    Bad input raises ``UsageError``.  ``-h`` or ``--help`` gives the
    handler ``help_fn`` instead, and ``command`` None at the top level.
    """
    if not argv:
        raise UsageError("the following arguments are required: command")
    if argv[0] in _HELP:
        return SimpleNamespace(command=None, fn=help_fn)
    command = _convert("command", tuple(commands), argv[0])
    fn, _, required, flags = commands[command]
    positional = [name for name in required if not name.startswith("-")]
    options = {name: kind for name, kind in {**required, **flags}.items() if name.startswith("-")}
    args = {
        name: False if kind is bool else kind[0] if isinstance(kind, tuple) else None
        for name, kind in flags.items()
    }
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP:
            return SimpleNamespace(command=command, fn=help_fn)
        if not _is_flag(token, options):
            if not positional:
                raise UsageError(f"unrecognized arguments: {quoted(token)}")
            name = positional.pop(0)
            args[name] = _convert(name, required[name], token)
            continue
        name, eq, value = token.partition("=")
        kind = options.get(name)
        if kind is None:
            raise UsageError(f"unrecognized arguments: {quoted(token)}")
        if kind is bool:
            if eq:
                raise UsageError(f"argument {name}: ignored explicit argument {quoted(value)}")
            args[name] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or _is_flag(value, options):
                raise UsageError(f"argument {name}: expected one argument")
        args[name] = _convert(name, kind, value)
    missing = [name for name in required if name not in args]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    attrs = {name.lstrip("-").replace("-", "_"): value for name, value in args.items()}
    return SimpleNamespace(command=command, fn=fn, **attrs)


def _usage(name: str, kind) -> str:
    """How ``name`` is given: ``--modified``, ``--n N`` or ``--format {text,json}``."""
    if kind is bool:
        return name
    shown = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name.lstrip("-").upper()
    return f"{name} {shown}" if name.startswith("-") else shown


def usage(commands: dict, command: str | None, description: str) -> str:
    """Help on ``command``, or on every command under ``description`` if it is None."""
    if command is None:
        lines = [f"usage: hlskit {{{','.join(commands)}}} ...", "", description, "commands:"]
        lines += [f"  {name:<12}{help_line}" for name, (_, help_line, _, _) in commands.items()]
        lines.append("\nhlskit COMMAND --help lists the flags of COMMAND.")
    else:
        _, help_line, required, flags = commands[command]
        shape = [command, *(_usage(name, kind) for name, kind in required.items())]
        lines = [f"usage: hlskit {' '.join(shape)} [flags]", "", help_line, ""]
        lines.append("flags (--n 2 or --n=2; of a set of choices, the first is the default):")
        lines += [f"  {_usage(name, kind)}" for name, kind in flags.items()]
    return "\n".join(lines)
