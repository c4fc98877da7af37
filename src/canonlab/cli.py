"""Command-line surface: named polynomials, identity checks, sweeps.

Exit status: 0 when everything holds, 1 when an identity fails or a
sweep finds a violator (a certificate is emitted), 2 on usage, file or
size-cap errors.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from itertools import islice
from typing import Callable, Iterable, Optional, Sequence

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


def _print_csv(header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a csv table to stdout; only a csv output loads the module."""
    import csv

    out = io.StringIO()
    writer = csv.writer(out)
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


def load_poset(path: str, repair: bool = False) -> tuple[Poset, Optional[tuple[int, ...]]]:
    """Read and validate a poset JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PosetFormatError(f"cannot read {path}: {exc}") from exc
    return poset_from_json(text, repair=repair)


def _row_labeling(kind: Optional[str], m: int) -> tuple[int, ...]:
    """The row labeling named by ``--w``; natural when it is not given.
    An m past the poset bound is refused before the m labels are built."""
    poset._check_size(m)  # private, so per-layer traces do not count it as a build
    if kind in ("reverse", "u"):
        return tuple(range(m, 0, -1))
    return tuple(range(1, m + 1))


def _resolve_poset(cfg: argparse.Namespace) -> tuple[Poset, Optional[tuple[int, ...]]]:
    """The poset of ``--poset``, or the ``--m`` x ``--n`` grid (the checked
    product with ``--checked``) less its ``--remove`` covers, with its
    labeling."""
    given = [f"--{name}" for name in ("m", "n", "w", "checked", "remove")
             if getattr(cfg, name, None) is not None]
    if cfg.poset is not None:
        if given:
            raise PosetFormatError(f"--poset does not combine with {', '.join(given)}")
        return load_poset(cfg.poset, repair=cfg.repair)
    if cfg.repair or cfg.m is None or cfg.n is None:
        raise PosetFormatError("give --poset FILE (which --repair needs), or --m and --n")
    mask = AmphibianSpec.from_removed(cfg.m, cfg.n, _parse_removed(cfg.remove)).mask
    p = (checked_product if cfg.checked else product_with_chain)(chain(cfg.m), cfg.n, mask)
    w = _row_labeling(getattr(cfg, "w", None), cfg.m)
    if cfg.checked:
        return p, poset.checked_labeling(w, cfg.n)
    return p, canon_labeling(w, range(1, cfg.n + 1))


# ---------------------------------------------------------------------------
# poly


def _cmd_poly(cfg: argparse.Namespace) -> int:
    p = cfg.make(cfg)
    if cfg.format == "json":
        print(json.dumps(poly_to_payload(p)))
    elif cfg.format == "csv":
        print("exponent,coefficient")
        for k, c in enumerate(p.coefficients):
            print(f"{k},{c}")
    else:
        print(f"coeffs {list(p.coefficients)}")
        print(str(p))
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(cfg: argparse.Namespace) -> int:
    # imported here: no other command compiles the statement checks
    from canonlab import verify

    return verify.run(cfg)


# ---------------------------------------------------------------------------
# sweep


def _cmd_sweep(cfg: argparse.Namespace) -> int:
    # imported here: only sweep and verify compile the edge-subset sweep
    from canonlab import sweep

    return sweep.run(cfg)


# ---------------------------------------------------------------------------
# gamma / extensions


def _cmd_gamma(cfg: argparse.Namespace) -> int:
    # imported here: only gamma and verify compile the Cor. 5.1 interpretation
    from canonlab import gamma

    return gamma.run(cfg)


def _cmd_extensions(cfg: argparse.Namespace) -> int:
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
        print(json.dumps([list(order) for order in stream]))
    else:
        for order in stream:
            print(" ".join(map(str, order)))
    return 0


# ---------------------------------------------------------------------------
# wiring


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {text}")
        return int(text)
    return integer


def _options(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    return argparse.ArgumentParser(add_help=False, parents=parents)


def build_parser() -> argparse.ArgumentParser:
    """One parser per command and ``poly`` kind, each taking only the options it reads."""
    parser = argparse.ArgumentParser(
        prog="canonlab",
        description="Enumerate canon permutations and verify descent-polynomial identities",
    )
    m_help, n_help = "size of the row chain", "number of chain copies / columns"
    size = _options()
    size.add_argument("--n", type=int, required=True, help=n_help)
    grid = _options(size)
    grid.add_argument("--m", type=int, required=True, help=m_help)
    row = _options()
    row.add_argument("--w", choices=["natural", "id", "reverse", "u"], help="row labeling")
    remove = _options()
    remove.add_argument("--remove", help='inter-copy covers to delete, "row:j,row:j"')
    cap = _options()
    cap.add_argument("--force-cap", type=_at_least(1),
                     help="ignored: no option raises the work bounds")
    fmt = _options()
    fmt.add_argument("--format", default="plain", choices=["json", "csv", "plain"])
    no_csv = _options()
    no_csv.add_argument("--format", default="plain", choices=["json", "plain"])
    # --poset or the m x n grid, checked at run time: each grid option is None unless given
    free = _options()
    free.add_argument("--m", type=int, help=m_help)
    free.add_argument("--n", type=int, help=n_help)
    source = _options(free, remove)
    source.add_argument("--poset", help="poset JSON file")
    source.add_argument("--repair", action="store_true",
                        help="repair redundant covers by transitive reduction on load")
    source.add_argument("--checked", action="store_true", default=None,
                        help="use the checked product")

    sub = parser.add_subparsers(dest="command", required=True)

    kinds = sub.add_parser("poly", help="compute a named polynomial").add_subparsers(
        dest="kind", required=True)
    for kind, parents, make in (
        ("eulerian", [size, fmt], lambda cfg: eulerian(cfg.n)),
        ("narayana", [size, fmt], lambda cfg: narayana(cfg.n)),
        ("canon", [grid, row, cap, fmt], lambda cfg: canon_polynomial_bruteforce(
            chain(cfg.m), _row_labeling(cfg.w, cfg.m), cfg.n)),
        ("canon-product", [grid, row, fmt], lambda cfg: canon_polynomial_product(
            chain(cfg.m), _row_labeling(cfg.w, cfg.m), cfg.n)),
        ("dissonant", [grid, row, remove, cap, fmt], lambda cfg: dissonant_polynomial(
            AmphibianSpec.from_removed(cfg.m, cfg.n, _parse_removed(cfg.remove)),
            _row_labeling(cfg.w, cfg.m))),
        ("weak-descent", [grid, cap, fmt], lambda cfg: weak_descent_polynomial(cfg.m, cfg.n)),
        ("hstar", [source, row, fmt], lambda cfg: hstar(*_resolve_poset(cfg))),
    ):
        kinds.add_parser(kind, parents=parents).set_defaults(run=_cmd_poly, make=make)

    verify = sub.add_parser("verify", parents=[free, row, cap, fmt],
                            help="machine-check identities")
    verify.add_argument("statements", nargs="+",
                        help="statement ids, as in the README's verification registry, or all")
    verify.set_defaults(run=_cmd_verify)

    sweep = sub.add_parser("sweep", parents=[grid, cap, fmt], help="exhaustive subposet sweeps")
    sweep.add_argument("kind", choices=["gamma"])
    sweep.add_argument("--jobs", type=_at_least(1), default=1,
                       help="worker processes, at most one per CPU and per subposet")
    sweep.set_defaults(run=_cmd_sweep)

    sub.add_parser("gamma", parents=[grid, cap, no_csv],
                   help="gamma-coefficient interpretation counts").set_defaults(run=_cmd_gamma)

    ext = sub.add_parser("extensions", parents=[source, no_csv],
                         help="enumerate linear extensions")
    ext.add_argument("--count-only", action="store_true")
    ext.add_argument("--limit", type=_at_least(0))
    ext.set_defaults(run=_cmd_extensions)

    return parser


def run(cfg: argparse.Namespace) -> int:
    """Execute one parsed command; returns the process exit status."""
    try:
        return cfg.run(cfg)
    except ValueError as exc:  # size caps, malformed files and arguments
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CanonlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    code = run(build_parser().parse_args(argv))
    if argv is None:
        sys.exit(code)
    return code
