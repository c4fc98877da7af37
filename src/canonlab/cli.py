"""Command-line surface: named polynomials, identity checks, sweeps.

Exit status: 0 when everything holds, 1 when an identity fails or a
sweep finds a violator (a certificate is emitted), 2 on usage, file or
size-cap errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from itertools import islice
from math import comb
from typing import Callable, Optional, Sequence

from canonlab import poset
from canonlab.canon import (
    AmphibianSpec,
    IdentityReport,
    canon_polynomial_bruteforce,
    canon_polynomial_product,
    canon_rows,
    checked_product_identity,
    column_labelings,
    conjecture_sweep,
    dissonant_degree_check,
    dissonant_palindromy_check,
    dissonant_polynomial,
    gamma_interpretation,
    generalized_product_identity,
    removable_edges,
    weak_descent_polynomial,
)
from canonlab.errors import CanonlabError, PosetFormatError, SizeCapError
from canonlab.linext import (
    count_linear_extensions,
    descent_count,
    descent_set,
    dyck_from_linext,
    enumerate_linear_extensions,
    high_peak_positions,
    is_dyck_path,
    linext_from_dyck,
    word,
)
from canonlab.polys import (
    IntPolynomial,
    eulerian,
    hstar,
    is_palindromic,
    narayana,
    poly_to_payload,
)
from canonlab.poset import (
    Poset,
    antichain,
    canon_labeling,
    chain,
    checked_product,
    natural_labeling,
    poset_from_json,
    product_with_chain,
)

# The most element indices one listing prints, or one walk of the
# thm-2.3 check visits: its extensions times |P|.
MAX_LISTED = 10_000_000


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
    except OSError as exc:
        raise PosetFormatError(f"cannot read {path}: {exc}") from exc
    return poset_from_json(text, repair=repair)


def _row_labeling(kind: Optional[str], m: int) -> tuple[int, ...]:
    """The row labeling named by ``--w``; natural when it is not given."""
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
    w = _row_labeling(getattr(cfg, "w", None), cfg.m)
    if cfg.checked:
        p = checked_product(chain(cfg.m), cfg.n)
        lab = poset.checked_labeling(w, cfg.n)
    else:
        p = product_with_chain(chain(cfg.m), cfg.n)
        lab = canon_labeling(w, range(1, cfg.n + 1))
    spec = AmphibianSpec.from_removed(cfg.m, cfg.n, _parse_removed(cfg.remove))
    if spec.mask:
        p = poset.remove_intercopy_covers(p, cfg.m, spec.removed)
    return p, lab


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
# verify: a check runs one case (m, n, *rest) and returns its reports, none
# for a case outside its statement; only _select reads --m, --n, --max-size


def _select(cfg: argparse.Namespace, cases: Sequence[tuple], sums: bool) -> list[tuple]:
    """The cases a check runs.  A given ``--m`` or ``--n`` keeps the default
    cases with that value.  When m and n are both known (each given, or
    the one value every default case has) and no default case has both,
    the check runs at that m and n instead, and nothing for m < 1 or n < 1.
    ``--max-size`` drops the default cases with m*n above it from the
    checks that ``sums`` over column labelings."""
    ms = {c[0] for c in cases} if cfg.m is None else {cfg.m}
    ns = {c[1] for c in cases} if cfg.n is None else {cfg.n}
    if len(ms) == len(ns) == 1 and not any(c[0] in ms and c[1] in ns for c in cases):
        (m,), (n,) = ms, ns
        return list(dict.fromkeys((m, n, *c[2:]) for c in cases)) if m >= 1 and n >= 1 else []
    return [c for c in cases if c[0] in ms and c[1] in ns
            and not (sums and c[0] * c[1] > cfg.max_size)]


def _check_product_formula(cfg: argparse.Namespace, m: int, n: int) -> list[IdentityReport]:
    kind = cfg.w or "natural"
    w = _row_labeling(kind, m)
    lhs = canon_polynomial_bruteforce(chain(m), w, n, cap=cfg.force_cap)
    rhs = canon_polynomial_product(chain(m), w, n)
    return [IdentityReport.compare(f"product-formula m={m} n={n} w={kind}", lhs, rhs)]


def _check_labeled_product(
    cfg: argparse.Namespace, m: int, n: int, name: str, covers: tuple, w: tuple[int, ...]
) -> list[IdentityReport]:
    if m != len(w):  # m is |P|
        return []
    p = Poset(m, frozenset(covers))
    lhs = canon_polynomial_bruteforce(p, w, n, cap=cfg.force_cap)
    rhs = canon_polynomial_product(p, w, n)
    return [IdentityReport.compare(f"labeled-product {name} n={n}", lhs, rhs)]


def _check_dyck_bijection(cfg: argparse.Namespace, m: int, n: int) -> list[IdentityReport]:
    if m != 2:
        return []
    # the walk visits the Catalan(k) extensions of [2]x[k], 2k elements
    # each, a number that grows with k: stop at the first k past the bound,
    # before any grid is built
    if any(comb(2 * k, k) // (k + 1) * 2 * k > MAX_LISTED for k in range(1, n + 1)):
        raise SizeCapError(f"the walk at n={n} visits more than {MAX_LISTED} element "
                           "indices; pass a smaller --n")
    grid = product_with_chain(chain(2), n)
    labeling = natural_labeling(grid)
    detail = None
    for order in enumerate_linear_extensions(grid):
        path = dyck_from_linext(grid, order)
        if not is_dyck_path(path):
            detail = f"{path} is not a Dyck path at {order}"
            break
        if linext_from_dyck(path) != order:
            detail = f"round trip failed at {order}"
            break
        if descent_set(word(order, labeling)) != high_peak_positions(path):
            detail = f"descents != high peaks at {order}"
            break
    return [IdentityReport(f"dyck-bijection n={n}", detail is None, witness=detail)]


def _check_narayana_model(cfg: argparse.Namespace, m: int, n: int) -> list[IdentityReport]:
    if m != 2:
        return []
    rhs = narayana(n)  # refuses an n past the named-polynomial bound first
    lhs = hstar(product_with_chain(chain(2), n))
    return [IdentityReport.compare(f"narayana-hstar n={n}", lhs, rhs)]


def _check_shift_law(cfg: argparse.Namespace, m: int, n: int) -> list[IdentityReport]:
    sigmas = column_labelings(m, n, cfg.force_cap)
    rows = canon_rows(product_with_chain(chain(m), n), _row_labeling("natural", m), sigmas)
    base = IntPolynomial(rows[0])  # sigma = the identity
    bad = [s for s, row in zip(sigmas, rows)
           if IntPolynomial(row) != base.shift(descent_count(s))]
    detail = f"failed at sigma={bad[0]}" if bad else None
    return [IdentityReport(f"shift-law m={m} n={n}", not bad, witness=detail)]


def _check_checked_product(cfg: argparse.Namespace, m: int, n: int) -> list[IdentityReport]:
    return [checked_product_identity(chain(m), _row_labeling("natural", m), n, cap=cfg.force_cap)]


def _star(n: int) -> Poset:
    """One element below n - 1 pairwise-incomparable others."""
    return Poset(n, frozenset((0, i) for i in range(1, n)))


def _check_generalized_product(
    cfg: argparse.Namespace, m: int, n: int, second: Callable[[int], Poset]
) -> list[IdentityReport]:
    p, w, pprime = chain(m), _row_labeling("natural", m), second(n)  # n is |P'|
    return [generalized_product_identity(p, w, pprime, cap=cfg.force_cap)]


def _amphibian_specs(m: int, n: int):
    for mask in range(1 << len(removable_edges(m, n))):
        yield AmphibianSpec(m, n, mask)


def _check_row_shift(cfg: argparse.Namespace, m: int, n: int) -> list[IdentityReport]:
    # labeled subposets: h* under (w x sigma) equals x^k h* under (id x sigma)
    sigmas = column_labelings(m, n, cfg.force_cap)
    w, ident = _row_labeling("reverse", m), _row_labeling("natural", m)
    k = m - 1
    detail = None
    for spec in _amphibian_specs(m, n):
        q = spec.poset()
        lhs, rhs = canon_rows(q, w, sigmas), canon_rows(q, ident, sigmas)
        bad = [s for s, a, b in zip(sigmas, lhs, rhs)
               if IntPolynomial(a) != IntPolynomial(b).shift(k)]
        if bad:
            detail = f"mask={spec.mask} sigma={bad[0]}"
            break
    return [IdentityReport(f"row-shift m={m} n={n}", detail is None, witness=detail)]


def _check_dissonant(
    cfg: argparse.Namespace, m: int, n: int, law: Callable[..., IdentityReport]
) -> list[IdentityReport]:
    # lemma-4.2's degree or thm-4.3's palindromy, on every subposet
    return [law(spec, _row_labeling(kind, m), cap=cfg.force_cap)
            for kind in ("natural", "reverse") for spec in _amphibian_specs(m, n)]


def _check_gamma_interpretation(cfg: argparse.Namespace, m: int, n: int) -> list[IdentityReport]:
    gi = gamma_interpretation(m, n, cap=cfg.force_cap)
    detail = f"gamma={gi.gamma} counts={gi.counts} shift={gi.shift} stated={gi.stated_shift}"
    return [IdentityReport(f"gamma-interpretation m={m} n={n}", gi.matches, witness=detail)]


def _check_weak_descents(cfg: argparse.Namespace, m: int, n: int) -> list[IdentityReport]:
    lhs = weak_descent_polynomial(m, n, cap=cfg.force_cap)
    rhs = canon_polynomial_bruteforce(
        chain(m), _row_labeling("natural", m), n, cap=cfg.force_cap
    ).shift(m - 1)
    return [IdentityReport.compare(f"weak-descents m={m} n={n}", lhs, rhs)]


def _check_fixed_row_palindromy(cfg: argparse.Namespace, m: int, n: int) -> list[IdentityReport]:
    # fixed-row subposets are palindromic in the identity-labeled window
    # m(n-1) and in the reversed-label window m(n+1)-2
    windows = ((_row_labeling("natural", m), m * (n - 1)),
               (_row_labeling("reverse", m), m * (n + 1) - 2))
    out = []
    for spec in _amphibian_specs(m, n):
        if spec.mode() != "general":
            ok = all(is_palindromic(dissonant_polynomial(spec, w, cap=cfg.force_cap), 0, top)
                     for w, top in windows)
            name = f"fixed-row-palindromy m={m} n={n} mask={spec.mask} mode={spec.mode()}"
            out.append(IdentityReport(name, ok, witness=None if ok else "window symmetry failed"))
    return out


_GRIDS = tuple((m, n) for m in (1, 2, 3) for n in (1, 2, 3))
_SUBPOSET_GRIDS = ((2, 2), (3, 2), (2, 3))
_DISSONANT_GRIDS = ((2, 2), (2, 3), (3, 2))
# thm-1.2's labeled posets (name, covers, labels), each at n = 1..3, m = |P|
_ZOO = tuple(
    (len(w), n, name, covers, w)
    for name, covers, w in (
        ("chain1", (), (1,)),
        ("chain2", ((0, 1),), (1, 2)),
        ("chain2-rev", ((0, 1),), (2, 1)),
        ("chain3", ((0, 1), (1, 2)), (1, 2, 3)),
        ("chain3-rev", ((0, 1), (1, 2)), (3, 2, 1)),
        ("vee", ((0, 1), (0, 2)), (1, 2, 3)),
        ("vee-k1", ((0, 1), (0, 2)), (3, 1, 2)),
        ("wedge", ((0, 2), (1, 2)), (1, 2, 3)),
        ("wedge-k1", ((0, 2), (1, 2)), (2, 3, 1)),
    )
    for n in (1, 2, 3)
)

# id -> (check, default cases, whether it sums over column labelings)
VERIFY_CHECKS: dict[str, tuple[Callable[..., list[IdentityReport]], tuple, bool]] = {
    "thm-1.1": (_check_product_formula, _GRIDS, True),
    "thm-main": (_check_product_formula, _GRIDS, True),
    "thm-1.2": (_check_labeled_product, _ZOO, True),
    "thm-3.5": (_check_labeled_product, _ZOO, True),
    "thm-2.3": (_check_dyck_bijection, tuple((2, n) for n in range(1, 7)), False),
    "cor-2.4": (_check_narayana_model, tuple((2, n) for n in range(1, 8)), False),
    "cor-3.4": (_check_shift_law, tuple((m, n) for m in (1, 2, 3) for n in (2, 3)), True),
    "prop-3.6": (_check_checked_product, _GRIDS, True),
    "remark-product": (_check_generalized_product,
                       tuple((2, 3, second) for second in (antichain, chain, _star)), True),
    "cor-4.1": (_check_row_shift, _SUBPOSET_GRIDS, True),
    "lemma-4.2": (_check_dissonant,
                  tuple((m, n, dissonant_degree_check) for m, n in _DISSONANT_GRIDS), True),
    "thm-4.3": (_check_dissonant,
                tuple((m, n, dissonant_palindromy_check) for m, n in _DISSONANT_GRIDS), True),
    "cor-5.1": (_check_gamma_interpretation, ((2, 2), (3, 2), (2, 3), (3, 3)), True),
    "prop-5.2": (_check_weak_descents, _GRIDS, True),
    "cor-5.3": (_check_fixed_row_palindromy, _SUBPOSET_GRIDS, True),
}


def _sides(r: IdentityReport) -> dict:
    """Both sides of a report as JSON.  A yes/no check reads as 1 = 1 when
    it holds and 0 = 1 when it fails."""
    if r.lhs is None:
        return {"lhs": {"coeffs": ["1"] if r.holds else []}, "rhs": {"coeffs": ["1"]}}
    return {"lhs": poly_to_payload(r.lhs), "rhs": poly_to_payload(r.rhs)}


def _emit_reports(reports: list[IdentityReport], cfg: argparse.Namespace) -> int:
    failed = [r for r in reports if not r.holds]
    if cfg.format == "json":
        payload = [
            {"name": r.name, "holds": r.holds, **_sides(r), "witness": r.witness}
            for r in reports
        ]
        print(json.dumps(payload))
    elif cfg.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["name", "holds", "witness"])
        for r in reports:
            writer.writerow([r.name, str(r.holds).lower(), r.witness or ""])
        sys.stdout.write(out.getvalue())
    else:
        for r in reports:
            mark = "ok" if r.holds else "FAIL"
            extra = f"  ({r.witness})" if (r.witness and not r.holds) else ""
            print(f"[{mark}] {r.name}{extra}")
        print(f"{len(reports) - len(failed)}/{len(reports)} checks hold")
    if failed and cfg.format == "plain":
        for r in failed:
            print(json.dumps({"name": r.name, **_sides(r), "witness": r.witness}))
    return 1 if failed else 0


def _cmd_verify(cfg: argparse.Namespace) -> int:
    names = cfg.statements
    reports: list[IdentityReport] = []
    for name in names:
        if name == "all":
            entries = dict.fromkeys(VERIFY_CHECKS.values())  # each alias once
        elif name in VERIFY_CHECKS:
            entries = [VERIFY_CHECKS[name]]
        else:
            raise PosetFormatError(
                f"unknown statement {name!r}; choose from "
                f"{', '.join(sorted(VERIFY_CHECKS))} or all"
            )
        for check, cases, sums in entries:
            for case in _select(cfg, cases, sums):
                reports.extend(check(cfg, *case))
    if not reports:
        raise PosetFormatError(
            f"no checks ran for {' '.join(names)}: "
            "--m, --n and --max-size leave nothing to check"
        )
    return _emit_reports(reports, cfg)


# ---------------------------------------------------------------------------
# sweep


def _cmd_sweep(cfg: argparse.Namespace) -> int:
    report = conjecture_sweep(cfg.m, cfg.n, jobs=cfg.jobs, cap=cfg.force_cap)
    rows = report.rows
    if cfg.format == "json":
        payload = {
            "m": report.m,
            "n": report.n,
            "rows": [
                {
                    "removed_edge_mask": r.mask,
                    "degree": r.degree,
                    "palindromic": r.palindromic,
                    "gamma": list(r.gamma) if r.gamma is not None else None,
                    "gamma_positive": r.gamma_positive,
                    "unimodal": r.unimodal,
                    "mode": r.mode,
                    "polynomial": poly_to_payload(r.polynomial),
                }
                for r in rows
            ],
            "violations": [c.to_payload() for c in report.violations],
        }
        print(json.dumps(payload))
    elif cfg.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(
            ["removed_edge_mask", "degree", "palindromic", "gamma", "gamma_positive", "unimodal", "mode"]
        )
        for r in rows:
            gamma = " ".join(str(g) for g in r.gamma) if r.gamma is not None else ""
            writer.writerow(
                [
                    r.mask,
                    r.degree,
                    str(r.palindromic).lower(),
                    gamma,
                    str(r.gamma_positive).lower(),
                    str(r.unimodal).lower(),
                    r.mode,
                ]
            )
        sys.stdout.write(out.getvalue())
    else:
        for r in rows:
            gamma = ",".join(str(g) for g in (r.gamma or ()))
            print(
                f"mask={r.mask} degree={r.degree} palindromic={str(r.palindromic).lower()} "
                f"gamma=({gamma}) gamma-positive: {str(r.gamma_positive).lower()} "
                f"unimodal={str(r.unimodal).lower()} mode={r.mode}"
            )
        print(
            f"{len(rows)} subposets swept, {len(report.violations)} gamma-negative"
        )
    if report.violations:
        for cert in report.violations:
            print(json.dumps(cert.to_payload()))
        return 1
    return 0


# ---------------------------------------------------------------------------
# gamma / extensions


def _cmd_gamma(cfg: argparse.Namespace) -> int:
    gi = gamma_interpretation(cfg.m, cfg.n, cap=cfg.force_cap)
    if cfg.format == "json":
        payload = {
            "m": gi.m,
            "n": gi.n,
            "gamma": list(gi.gamma),
            "counts": list(gi.counts),
            "stated_shift": gi.stated_shift,
            "shift": gi.shift,
            "matches": gi.matches,
            "classes": [
                ["".join(str(x) for x in w) for w in bucket] for bucket in gi.words
            ],
        }
        print(json.dumps(payload))
    else:
        print(f"gamma {list(gi.gamma)}")
        print(f"counts {list(gi.counts)} (shift {gi.shift}, stated {gi.stated_shift})")
        print(f"matches: {str(gi.matches).lower()}")
        for i, bucket in enumerate(gi.words):
            joined = " ".join("".join(str(x) for x in w) for w in bucket)
            print(f"gamma[{i}] classes: {joined}")
    return 0 if gi.matches else 1


def _cmd_extensions(cfg: argparse.Namespace) -> int:
    p, _ = _resolve_poset(cfg)
    if cfg.count_only:
        print(count_linear_extensions(p))
        return 0
    n = p.element_count
    # with a small enough --limit, the enumerator stops early: skip the count
    if (cfg.limit is None or cfg.limit * n > MAX_LISTED) and (
        count_linear_extensions(p) * n > MAX_LISTED
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
                     help="raise the |P|*n cap on sums over all column labelings")
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
            chain(cfg.m), _row_labeling(cfg.w, cfg.m), cfg.n, cap=cfg.force_cap)),
        ("canon-product", [grid, row, fmt], lambda cfg: canon_polynomial_product(
            chain(cfg.m), _row_labeling(cfg.w, cfg.m), cfg.n)),
        ("dissonant", [grid, row, remove, cap, fmt], lambda cfg: dissonant_polynomial(
            AmphibianSpec.from_removed(cfg.m, cfg.n, _parse_removed(cfg.remove)),
            _row_labeling(cfg.w, cfg.m), cap=cfg.force_cap)),
        ("weak-descent", [grid, cap, fmt],
         lambda cfg: weak_descent_polynomial(cfg.m, cfg.n, cap=cfg.force_cap)),
        ("hstar", [source, row, fmt], lambda cfg: hstar(*_resolve_poset(cfg))),
    ):
        kinds.add_parser(kind, parents=parents).set_defaults(run=_cmd_poly, make=make)

    verify = sub.add_parser("verify", parents=[free, row, cap, fmt],
                            help="machine-check identities")
    verify.add_argument("statements", nargs="+",
                        help=f"statement ids ({', '.join(sorted(VERIFY_CHECKS))}) or all")
    verify.add_argument("--max-size", type=int, default=9,
                        help="bound on |P|*n for default verification grids")
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
