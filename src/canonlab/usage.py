"""Usage lines and help text, rendered from ``cli.ROUTES`` and
``cli.OPTIONS``.  Only a usage error or a help request imports this module.

A level is the command line's names so far: ``""`` for the top, ``"poly"``,
or a route such as ``"poly canon"`` or ``"sweep"``.
"""

from __future__ import annotations

import sys

from canonlab.cli import OPTIONS, ROUTES, route_options

DESCRIPTION = "Enumerate canon permutations and verify descent-polynomial identities"
POLY_HELP = "compute a named polynomial"


def _node(level: str):
    node = ROUTES
    for name in level.split():
        node = node[name]
    return node


def _word(name: str, convert) -> str:
    """An option with its metavar, or a positional's metavar."""
    if isinstance(convert, tuple):
        metavar = "{" + ",".join(convert) + "}"
    else:
        metavar = name.lstrip("-").replace("-", "_").upper()
    if not name.startswith("-"):
        return metavar.lower()
    return name if convert is None else f"{name} {metavar}"


def usage(level: str) -> str:
    """The usage line of a level, without its ``usage: `` prefix."""
    words = ["canonlab", *level.split(), "[-h]"]
    node = _node(level)
    if isinstance(node, dict):
        return " ".join([*words, "{" + ",".join(node) + "} ..."])
    for name, (convert, _, _) in route_options(node).items():
        word = _word(name, convert)
        words.append(word if name in node.required.split() else f"[{word}]")
    if node.positional:
        word = _word(node.positional, OPTIONS[node.positional][0])
        words.append(f"{word} [{word} ...]" if node.many else word)
    return " ".join(words)


def _rows(title: str, rows: list) -> str:
    width = max(len(left) for left, _ in rows)
    return f"\n{title}:\n" + "".join(f"  {left.ljust(width)}  {text}\n" for left, text in rows)


def print_help(level: str):
    """Print a level's usage and what it takes, each line from the table,
    then exit 0."""
    text = f"usage: {usage(level)}\n"
    node = _node(level)
    if not level:
        text += f"\n{DESCRIPTION}\n" + _rows("commands", [
            (name, POLY_HELP if isinstance(route, dict) else route.help)
            for name, route in node.items()])
    elif isinstance(node, dict):
        text += _rows("kinds", [(name, route.help) for name, route in node.items()])
    else:
        text += f"\n{node.help}\n"
        if node.positional:
            text += _rows("positional arguments",
                          [(node.positional, OPTIONS[node.positional][1])])
        text += _rows("options", [("-h, --help", "show this help message and exit")] + [
            (_word(name, convert), help)
            for name, (convert, help, _) in route_options(node).items()])
    sys.stdout.write(text)
    sys.exit(0)


def fail(level: str, message: str):
    """Print a level's usage and one error line to stderr, then exit 2."""
    prog = " ".join(["canonlab", *level.split()])
    sys.stderr.write(f"usage: {usage(level)}\n{prog}: error: {message}\n")
    sys.exit(2)
