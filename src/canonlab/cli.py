"""Command-line surface: named polynomials, identity checks, sweeps.

``parse_args`` reads argv against one table, ``ROUTES``, with
argparse's syntax and messages; ``main`` runs the route it picks.  The
modules that only some commands need (the statement checks, the sweep,
the gamma interpretation and the usage text) are imported by one
loader, ``_load``, when first needed.  So are the standard modules that
few commands need: ``json`` only by ``_print_json`` (and by ``poset``'s
file reader and writer), the csv writer only by ``_print_csv``, and
``re`` only by ``_read``, for an unknown dash argument.  No module
imports ``typing``: annotations are strings, their names come from
``collections.abc``, and records subclass ``collections.namedtuple``.

Exit status: 0 when everything holds, 1 when an identity fails or a
sweep finds a violator (a certificate is emitted), 2 on usage, file or
size-cap errors.
"""

from __future__ import annotations

import io
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable, Sequence
from importlib import import_module
from itertools import islice
from types import SimpleNamespace

from canonlab import poset
from canonlab.canon import (
    AmphibianSpec,
    canon_polynomial_bruteforce,
    canon_polynomial_product,
    dissonant_polynomial,
    weak_descent_polynomial,
)
from canonlab.errors import CanonlabError, PosetFormatError, SizeCapError
from canonlab.kernel import count_extensions
from canonlab.linext import enumerate_linear_extensions
from canonlab.polys import eulerian, hstar, narayana, poly_to_payload
from canonlab.poset import (
    Poset,
    _row_labeling,
    canon_labeling,
    chain,
    checked_product,
    poset_from_json,
    product_with_chain,
)

# The most element indices one listing prints, or one walk of the
# thm-2.3 check visits: its extensions times |P|; or letters of `gamma`'s
# class words.
MAX_LISTED = 10_000_000


def _load(name: str):
    """The module ``canonlab.<name>``, imported the first time a command
    needs it: only verify compiles the statement checks, only sweep and
    verify the edge-subset sweep, only gamma and verify the Cor. 5.1
    interpretation, and only a usage error or a help the usage text.  Each
    caller reads its function off the module when it runs."""
    return import_module(f"canonlab.{name}")


def _print_json(payload) -> None:
    """Print ``payload`` as one line of JSON; only a JSON output loads the
    module."""
    import json

    print(json.dumps(payload))


def _print_csv(header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a csv table to stdout; only a csv output loads the writer.  It
    is the one ``csv.writer`` names, with the same default (excel) dialect,
    imported from ``_csv``: the ``csv`` module imports ``re`` for its sniffer."""
    import _csv

    out = io.StringIO()
    writer = _csv.writer(out)
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(out.getvalue())


def _parse_removed(text: str) -> tuple[tuple[int, int], ...]:
    if not text:
        return ()
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            row, j = part.split(":")
            out.append((int(row), int(j)))
        except ValueError as exc:
            raise PosetFormatError(
                f'bad --remove entry {part!r}, expected "row:j"'
            ) from exc
    return tuple(out)


def load_poset(path: str, repair: bool = False) -> tuple[Poset, tuple[int, ...] | None]:
    """Read and validate a poset JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PosetFormatError(f"cannot read {path}: {exc}") from exc
    return poset_from_json(text, repair=repair)


def _resolve_poset(cfg: SimpleNamespace) -> tuple[Poset, tuple[int, ...] | None]:
    """The poset of ``--poset``, or the ``--m`` x ``--n`` grid (the checked
    product with ``--checked``) less its ``--remove`` covers, with its
    labeling."""
    given = [f"--{name}" for name in ("m", "n", "w", "checked", "remove")
             if getattr(cfg, name) is not None]
    if cfg.poset is not None:
        if given:
            raise PosetFormatError(f"--poset does not combine with {', '.join(given)}")
        return load_poset(cfg.poset, repair=cfg.repair)
    if cfg.repair or cfg.m is None or cfg.n is None:
        raise PosetFormatError("give --poset FILE (which --repair needs), or --m and --n")
    mask = AmphibianSpec.from_removed(cfg.m, cfg.n, _parse_removed(cfg.remove)).mask
    p = (checked_product if cfg.checked else product_with_chain)(chain(cfg.m), cfg.n, mask)
    w = _row_labeling(cfg.w, cfg.m)
    if cfg.checked:
        return p, poset.checked_labeling(w, cfg.n)
    return p, canon_labeling(w, range(1, cfg.n + 1))


# ---------------------------------------------------------------------------
# poly


def _cmd_poly(cfg: SimpleNamespace) -> int:
    p = cfg.make(cfg)
    if cfg.format == "json":
        _print_json(poly_to_payload(p))
    elif cfg.format == "csv":
        print("exponent,coefficient")
        for k, c in enumerate(p.coefficients):
            print(f"{k},{c}")
    else:
        print(f"coeffs {list(p.coefficients)}")
        print(str(p))
    return 0


# ---------------------------------------------------------------------------
# extensions


def _cmd_extensions(cfg: SimpleNamespace) -> int:
    p, _ = _resolve_poset(cfg)
    if cfg.count_only:
        print(count_extensions(p))
        return 0
    n = p.element_count
    # with a small enough --limit, the enumerator stops early: skip the count
    if (cfg.limit is None or cfg.limit * n > MAX_LISTED) and (
        count_extensions(p) * n > MAX_LISTED
    ):
        raise SizeCapError(
            f"listing would print more than {MAX_LISTED} element indices; "
            "pass a smaller --limit or --count-only"
        )
    stream = islice(enumerate_linear_extensions(p), cfg.limit)
    if cfg.format == "json":
        _print_json([list(order) for order in stream])
    else:
        for order in stream:
            print(" ".join(map(str, order)))
    return 0


# ---------------------------------------------------------------------------
# the option table


FORMATS = ("json", "csv", "plain")
# Each option and positional: how it reads its text (``int``, an int N for an
# integer of at least N, ``str`` or a tuple of choices; None for a flag, True
# when given), its help and its value when not given.  --format's choices are
# each route's own.
OPTIONS = {
    "--m": (int, "size of the row chain", None),
    "--n": (int, "number of chain copies / columns", None),
    "--w": (("natural", "id", "reverse", "u"), "row labeling", None),
    "--remove": (str, 'inter-copy covers to delete, "row:j,row:j"', None),
    "--poset": (str, "poset JSON file", None),
    "--repair": (None, "repair redundant covers by transitive reduction on load", None),
    "--checked": (None, "use the checked product", None),
    "--force-cap": (1, "ignored: no option raises the work bounds", None),
    "--jobs": (1, "worker processes, at most one per CPU and per subposet", 1),
    "--count-only": (None, "print the number of linear extensions only", None),
    "--limit": (0, "list at most this many linear extensions", None),
    "--format": (FORMATS, "output format", "plain"),
    "statements": (str, "statement ids, as in the README's verification registry, or all", None),
    "kind": (("gamma",), "the sweep to run", None),
}


class Route(namedtuple("Route", "help options required formats run make positional many",
                       defaults=("", FORMATS, _cmd_poly, None, "", False))):
    """A command or ``poly`` kind: its help, the options it takes in usage
    order, the ones it requires, its ``--format`` choices, what runs it and,
    for a ``poly`` kind, the polynomial it makes.  ``positional`` names its
    positional, which takes one or more values when ``many``."""

    __slots__ = ()


GRID = "--n --m"
SOURCE = "--m --n --remove --poset --repair --checked"  # a file or the grid, checked at run time
# The top level chooses a command, and poly a kind, by name.
ROUTES = {
    "poly": {
        "eulerian": Route("the Eulerian polynomial", "--n --format", "--n",
                          make=lambda cfg: eulerian(cfg.n)),
        "narayana": Route("the Narayana polynomial", "--n --format", "--n",
                          make=lambda cfg: narayana(cfg.n)),
        "canon": Route("the canon polynomial, summed over the column labelings",
                       "--n --m --w --force-cap --format", GRID,
                       make=lambda cfg: canon_polynomial_bruteforce(
                           chain(cfg.m), _row_labeling(cfg.w, cfg.m), cfg.n)),
        "canon-product": Route("the canon polynomial by the product formula",
                               "--n --m --w --format", GRID,
                               make=lambda cfg: canon_polynomial_product(
                                   chain(cfg.m), _row_labeling(cfg.w, cfg.m), cfg.n)),
        "dissonant": Route("the dissonant polynomial of the grid less some covers",
                           "--n --m --w --remove --force-cap --format", GRID,
                           make=lambda cfg: dissonant_polynomial(
                               AmphibianSpec.from_removed(cfg.m, cfg.n,
                                                          _parse_removed(cfg.remove)),
                               _row_labeling(cfg.w, cfg.m))),
        "weak-descent": Route("the weak-descent polynomial", "--n --m --force-cap --format",
                              GRID, make=lambda cfg: weak_descent_polynomial(cfg.m, cfg.n)),
        "hstar": Route("the h* polynomial of a poset file or grid", SOURCE + " --w --format",
                       make=lambda cfg: hstar(*_resolve_poset(cfg))),
    },
    "verify": Route("machine-check identities", "--m --n --w --force-cap --format",
                    run=lambda cfg: _load("verify").run(cfg), positional="statements", many=True),
    "sweep": Route("exhaustive subposet sweeps", "--n --m --force-cap --format --jobs", GRID,
                   run=lambda cfg: _load("sweep").run(cfg), positional="kind"),
    "gamma": Route("gamma-coefficient interpretation counts", "--n --m --force-cap --format",
                   GRID, ("json", "plain"), lambda cfg: _load("gamma").run(cfg)),
    "extensions": Route("enumerate linear extensions", SOURCE + " --format --count-only --limit",
                        formats=("json", "plain"), run=_cmd_extensions),
}


def route_options(route: Route) -> dict:
    """A route's options, in usage order, with its own --format choices."""
    options = {name: OPTIONS[name] for name in route.options.split()}
    options["--format"] = (route.formats, *OPTIONS["--format"][1:])
    return options


# ---------------------------------------------------------------------------
# parsing: argparse's syntax, on the table


def _fail(level: str, message: str):
    """Print the level's usage and ``message`` to stderr and exit 2."""
    _load("usage").fail(level, message)


def _read(level: str, names, arg: str) -> tuple | None:
    """How argparse reads one argument before any ``--``: None for a
    positional, else the option it names (None for an unknown one) and its
    attached value (None if none).  A long option's unique prefix names it."""
    if arg[:1] != "-" or arg == "-":
        return None
    if arg in names:
        return arg, None
    head, eq, value = arg.partition("=")
    if eq and head in names:
        return head, value
    if arg[1] == "-":
        matches = [name for name in names if name.startswith(head)]
        if len(matches) > 1:
            _fail(level, f"ambiguous option: {arg} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif arg.startswith("-h"):
        return "-h", arg[2:]
    import re  # only an unknown dash argument is tested for a negative number

    if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg:
        return None  # a negative number or a phrase
    return None, None


def _help(level: str, name: str, value: str | None):
    """Print the level's help for -h or --help (-hh is -h twice) and exit 0."""
    if value is not None and (name == "--help" or not value or value.strip("h")):
        _fail(level, f"argument -h/--help: ignored explicit argument {value!r}")
    _load("usage").print_help(level)


def _convert(level: str, name: str, convert, text: str):
    if isinstance(convert, tuple):
        if text not in convert:
            _fail(level, f"argument {name}: invalid choice: {text!r} "
                         f"(choose from {', '.join(map(repr, convert))})")
        return text
    if convert is str:
        return text
    try:
        value = int(text)
    except ValueError:
        _fail(level, f"argument {name}: invalid int value: {text!r}")
    if convert is not int and value < convert:
        _fail(level, f"argument {name}: must be at least {convert}, not {text}")
    return value


def _parse(level: str, route: Route, args: list, extras: list) -> SimpleNamespace:
    """A route's config, its arguments read left to right as argparse reads
    them: the first run of positionals fills the positional, the last of a
    repeated option wins, and what no option takes is an extra."""
    options = route_options(route)
    names = ("-h", "--help", *options)
    reads: list = []
    for i, arg in enumerate(args):
        if arg == "--":  # every argument after it is positional
            reads += ["--"] + [None] * (len(args) - i - 1)
            break
        reads.append(_read(level, names, arg))
    values = {name: option[2] for name, option in options.items()}
    pending, i = route.positional, 0
    while i < len(args):
        if reads[i] in (None, "--"):  # a run of positionals
            end = i
            while end < len(args) and reads[end] in (None, "--"):
                end += 1
            words = [k for k in range(i, end) if reads[k] is None]
            taken = i
            if pending and words:
                # one word takes a "--" next to it, more take the whole run
                taken = end if route.many else words[0] + 1 + (reads[words[0] + 1:][:1] == ["--"])
                words = [_convert(level, pending, OPTIONS[pending][0], args[k])
                         for k in words if k < taken]
                values[pending] = words if route.many else words[0]
                pending = ""
            extras += args[taken:end]
            i = end
            continue
        name, value = reads[i]
        i += 1
        if name is None:
            extras.append(args[i - 1])
        elif name in ("-h", "--help"):
            _help(level, name, value)
        elif options[name][0] is None:  # a flag
            if value is not None:
                _fail(level, f"argument {name}: ignored explicit argument {value!r}")
            values[name] = True
        else:
            if value is None:
                if i == len(args) or reads[i] is not None:
                    _fail(level, f"argument {name}: expected one argument")
                value, i = args[i], i + 1
            values[name] = _convert(level, name, options[name][0], value)
    # an option given reads its value, never its default, so None marks one not given
    missing = [name for name in route.required.split() if values[name] is None]
    if pending or missing:
        _fail(level, "the following arguments are required: "
                     + ", ".join(missing + [pending] * bool(pending)))
    cfg = SimpleNamespace(run=route.run, make=route.make)
    for name in OPTIONS:
        setattr(cfg, name.lstrip("-").replace("-", "_"), values.get(name))
    return cfg


def parse_args(argv: Sequence[str] | None = None) -> SimpleNamespace:
    """The config of one command line, where every option its route does
    not take reads None.  A usage error exits 2; -h or --help exits 0."""
    args = list(sys.argv[1:] if argv is None else argv)
    extras: list = []
    level, route = "", ROUTES
    while isinstance(route, dict):  # a command, then poly's kind, by name
        dest = "kind" if level else "command"
        for i, arg in enumerate(args):
            read = None if arg == "--" else _read(level, ("-h", "--help"), arg)
            if read is None:
                name, args = _convert(level, dest, tuple(route), arg), args[i + 1:]
                break
            if read[0] is None:
                extras.append(arg)
            else:
                _help(level, *read)
        else:
            _fail(level, f"the following arguments are required: {dest}")
        level, route = f"{level} {name}".lstrip(), route[name]
    cfg = _parse(level, route, args, extras)
    if extras:
        _fail("", f"unrecognized arguments: {' '.join(extras)}")
    return cfg


def build_parser() -> Callable:
    """``parse_args`` itself: no command needs this, but the set-up probe of
    ``canonbench/run.py`` calls it, so it stays until that probe changes."""
    return parse_args


def run(cfg: SimpleNamespace) -> int:
    """Execute one parsed command; returns the process exit status."""
    try:
        return cfg.run(cfg)
    except ValueError as exc:  # size caps, malformed files and arguments
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CanonlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Sequence[str] | None = None) -> int:
    code = run(parse_args(argv))
    if argv is None:
        sys.exit(code)
    return code
