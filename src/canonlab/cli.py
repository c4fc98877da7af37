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
from typing import Callable, NamedTuple, Optional, Sequence

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
    linext_from_dyck,
    word,
)
from canonlab.polys import (
    IntPolynomial,
    check_named_n,
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


class RunConfig(NamedTuple):
    command: str
    subcommand: Optional[str] = None
    m: Optional[int] = None
    n: Optional[int] = None
    w: str = "natural"
    poset_file: Optional[str] = None
    remove: str = ""
    checked: bool = False
    repair: bool = False
    count_only: bool = False
    limit: Optional[int] = None
    max_size: int = 9
    output_format: str = "plain"
    parallelism: int = 1
    cap_override: Optional[int] = None
    statements: tuple[str, ...] = ()


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


def _row_labeling(kind: str, m: int) -> tuple[int, ...]:
    if kind in ("natural", "id"):
        return tuple(range(1, m + 1))
    if kind in ("reverse", "u"):
        return tuple(range(m, 0, -1))
    raise PosetFormatError(f"unknown labeling kind {kind!r}")


def _need(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise PosetFormatError(f"--{name} is required for this command")


# ---------------------------------------------------------------------------
# poly


def _poly_for(cfg: RunConfig) -> IntPolynomial:
    kind = cfg.subcommand
    if kind == "eulerian":
        _need(cfg, "n")
        return eulerian(cfg.n)
    if kind == "narayana":
        _need(cfg, "n")
        return narayana(cfg.n)
    if kind == "canon":
        _need(cfg, "m", "n")
        return canon_polynomial_bruteforce(
            chain(cfg.m), _row_labeling(cfg.w, cfg.m), cfg.n, cap=cfg.cap_override
        )
    if kind == "canon-product":
        _need(cfg, "m", "n")
        return canon_polynomial_product(chain(cfg.m), _row_labeling(cfg.w, cfg.m), cfg.n)
    if kind == "dissonant":
        _need(cfg, "m", "n")
        spec = AmphibianSpec(cfg.m, cfg.n, _parse_removed(cfg.remove))
        return dissonant_polynomial(spec, _row_labeling(cfg.w, cfg.m), cap=cfg.cap_override)
    if kind == "weak-descent":
        _need(cfg, "m", "n")
        return weak_descent_polynomial(cfg.m, cfg.n, cap=cfg.cap_override)
    if kind == "hstar":
        p, lab = _resolve_poset(cfg)
        return hstar(p, lab)
    raise PosetFormatError(f"unknown polynomial kind {kind!r}")


def _resolve_poset(cfg: RunConfig) -> tuple[Poset, Optional[tuple[int, ...]]]:
    if cfg.poset_file:
        return load_poset(cfg.poset_file, repair=cfg.repair)
    _need(cfg, "m", "n")
    if cfg.checked:
        p = checked_product(chain(cfg.m), cfg.n)
        lab = poset.checked_labeling(_row_labeling(cfg.w, cfg.m), cfg.n)
    else:
        p = product_with_chain(chain(cfg.m), cfg.n)
        lab = canon_labeling(_row_labeling(cfg.w, cfg.m), range(1, cfg.n + 1))
    removed = _parse_removed(cfg.remove)
    if removed:
        p = poset.remove_intercopy_covers(p, cfg.m, removed)
    return p, lab


def _emit_poly(p: IntPolynomial, cfg: RunConfig) -> None:
    if cfg.output_format == "json":
        print(json.dumps(poly_to_payload(p)))
    elif cfg.output_format == "csv":
        print("exponent,coefficient")
        for k, c in enumerate(p.coefficients):
            print(f"{k},{c}")
    else:
        print(f"coeffs {list(p.coefficients)}")
        print(str(p))


def _cmd_poly(cfg: RunConfig) -> int:
    _emit_poly(_poly_for(cfg), cfg)
    return 0


# ---------------------------------------------------------------------------
# verify

Checker = Callable[[RunConfig], list[IdentityReport]]


def _grid(cfg: RunConfig, default_pairs: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    if cfg.m is not None and cfg.n is not None:
        return [(cfg.m, cfg.n)]
    return [(m, n) for m, n in default_pairs if m * n <= cfg.max_size]


def _check_product_formula(cfg: RunConfig) -> list[IdentityReport]:
    out = []
    for m, n in _grid(cfg, [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]):
        w = _row_labeling(cfg.w, m)
        lhs = canon_polynomial_bruteforce(chain(m), w, n, cap=cfg.cap_override)
        rhs = canon_polynomial_product(chain(m), w, n)
        out.append(IdentityReport.compare(f"product-formula m={m} n={n} w={cfg.w}", lhs, rhs))
    return out


def _zoo() -> list[tuple[str, Poset, tuple[int, ...]]]:
    vee = Poset(3, frozenset({(0, 1), (0, 2)}))
    wedge = Poset(3, frozenset({(0, 2), (1, 2)}))
    zoo = [
        ("chain1", chain(1), (1,)),
        ("chain2", chain(2), (1, 2)),
        ("chain2-rev", chain(2), (2, 1)),
        ("chain3", chain(3), (1, 2, 3)),
        ("chain3-rev", chain(3), (3, 2, 1)),
        ("vee", vee, (1, 2, 3)),
        ("vee-k1", vee, (3, 1, 2)),
        ("wedge", wedge, (1, 2, 3)),
        ("wedge-k1", wedge, (2, 3, 1)),
    ]
    return zoo


def _check_poset_zoo(cfg: RunConfig) -> list[IdentityReport]:
    out = []
    for name, p, w in _zoo():
        for n in (1, 2, 3):
            if p.element_count * n > cfg.max_size:
                continue
            lhs = canon_polynomial_bruteforce(p, w, n, cap=cfg.cap_override)
            rhs = canon_polynomial_product(p, w, n)
            out.append(IdentityReport.compare(f"labeled-product {name} n={n}", lhs, rhs))
    return out


def _check_dyck_bijection(cfg: RunConfig) -> list[IdentityReport]:
    top = 6 if cfg.n is None else cfg.n
    grids = []
    # counted first, through the kernel: the walk grows with n, so this
    # stops at the first n it would refuse, before any grid is walked
    for n in range(1, top + 1):
        grid = product_with_chain(chain(2), n)
        listed = count_linear_extensions(grid) * 2 * n
        if listed > MAX_LISTED:
            raise SizeCapError(
                f"the walk at n={n} visits {listed} element indices, "
                f"more than {MAX_LISTED}; pass a smaller --n"
            )
        grids.append(grid)
    out = []
    for n, grid in enumerate(grids, start=1):
        labeling = natural_labeling(grid)
        detail = None
        for order in enumerate_linear_extensions(grid):
            path = dyck_from_linext(grid, order)
            if linext_from_dyck(path) != order:
                detail = f"round trip failed at {order}"
                break
            if descent_set(word(order, labeling)) != high_peak_positions(path):
                detail = f"descents != high peaks at {order}"
                break
        out.append(IdentityReport(f"dyck-bijection n={n}", detail is None, witness=detail))
    return out


def _check_narayana_model(cfg: RunConfig) -> list[IdentityReport]:
    out = []
    top = 7 if cfg.n is None else cfg.n
    check_named_n(top)
    for n in range(1, top + 1):
        lhs = hstar(product_with_chain(chain(2), n))
        rhs = narayana(n)
        out.append(IdentityReport.compare(f"narayana-hstar n={n}", lhs, rhs))
    return out


def _check_shift_law(cfg: RunConfig) -> list[IdentityReport]:
    out = []
    for m, n in _grid(cfg, [(m, n) for m in (1, 2, 3) for n in (2, 3)]):
        sigmas = column_labelings(m, n, cfg.cap_override)
        rows = canon_rows(product_with_chain(chain(m), n), _row_labeling("natural", m), sigmas)
        base = IntPolynomial(rows[0])  # sigma = the identity
        bad = [s for s, row in zip(sigmas, rows)
               if IntPolynomial(row) != base.shift(descent_count(s))]
        detail = f"failed at sigma={bad[0]}" if bad else None
        out.append(IdentityReport(f"shift-law m={m} n={n}", not bad, witness=detail))
    return out


def _check_checked_product(cfg: RunConfig) -> list[IdentityReport]:
    out = []
    for m, n in _grid(cfg, [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]):
        w = _row_labeling("natural", m)
        out.append(checked_product_identity(chain(m), w, n, cap=cfg.cap_override))
    return out


def _check_generalized_product(cfg: RunConfig) -> list[IdentityReport]:
    vee = Poset(3, frozenset({(0, 1), (0, 2)}))
    cases = [
        ("antichain", antichain(3)),
        ("chain", chain(3)),
        ("vee", vee),
    ]
    out = []
    m = 2 if cfg.m is None else cfg.m
    for name, pprime in cases:
        out.append(
            generalized_product_identity(
                chain(m), _row_labeling("natural", m), pprime, cap=cfg.cap_override
            )
        )
    return out


def _amphibian_specs(m: int, n: int):
    for mask in range(1 << len(removable_edges(m, n))):
        yield AmphibianSpec.from_mask(m, n, mask)


def _check_row_shift(cfg: RunConfig) -> list[IdentityReport]:
    # labeled subposets: h* under (w x sigma) equals x^k h* under (id x sigma)
    out = []
    for m, n in _grid(cfg, [(2, 2), (3, 2), (2, 3)]):
        sigmas = column_labelings(m, n, cfg.cap_override)
        w, ident = _row_labeling("reverse", m), _row_labeling("natural", m)
        k = m - 1
        detail = None
        for spec in _amphibian_specs(m, n):
            q = spec.poset()
            lhs, rhs = canon_rows(q, w, sigmas), canon_rows(q, ident, sigmas)
            bad = [s for s, a, b in zip(sigmas, lhs, rhs)
                   if IntPolynomial(a) != IntPolynomial(b).shift(k)]
            if bad:
                detail = f"mask={spec.edge_mask()} sigma={bad[0]}"
                break
        out.append(IdentityReport(f"row-shift m={m} n={n}", detail is None, witness=detail))
    return out


def _check_degree_law(cfg: RunConfig) -> list[IdentityReport]:
    out = []
    for m, n in _grid(cfg, [(2, 2), (2, 3), (3, 2)]):
        for kind in ("natural", "reverse"):
            w = _row_labeling(kind, m)
            for spec in _amphibian_specs(m, n):
                out.append(dissonant_degree_check(spec, w, cap=cfg.cap_override))
    return out


def _check_palindromy(cfg: RunConfig) -> list[IdentityReport]:
    out = []
    for m, n in _grid(cfg, [(2, 2), (2, 3), (3, 2)]):
        for kind in ("natural", "reverse"):
            w = _row_labeling(kind, m)
            for spec in _amphibian_specs(m, n):
                out.append(dissonant_palindromy_check(spec, w, cap=cfg.cap_override))
    return out


def _check_gamma_interpretation(cfg: RunConfig) -> list[IdentityReport]:
    out = []
    for m, n in _grid(cfg, [(2, 2), (3, 2), (2, 3), (3, 3)]):
        gi = gamma_interpretation(m, n, cap=cfg.cap_override)
        detail = f"gamma={gi.gamma} counts={gi.counts} shift={gi.shift} stated={gi.stated_shift}"
        out.append(IdentityReport(f"gamma-interpretation m={m} n={n}", gi.matches, witness=detail))
    return out


def _check_weak_descents(cfg: RunConfig) -> list[IdentityReport]:
    out = []
    for m, n in _grid(cfg, [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]):
        lhs = weak_descent_polynomial(m, n, cap=cfg.cap_override)
        rhs = canon_polynomial_bruteforce(
            chain(m), _row_labeling("natural", m), n, cap=cfg.cap_override
        ).shift(m - 1)
        out.append(IdentityReport.compare(f"weak-descents m={m} n={n}", lhs, rhs))
    return out


def _check_fixed_row_palindromy(cfg: RunConfig) -> list[IdentityReport]:
    # fixed-row subposets: identity-labeled window m(n-1), reversed-label
    # window m(n+1)-2
    out = []
    for m, n in _grid(cfg, [(2, 2), (3, 2), (2, 3)]):
        for spec in _amphibian_specs(m, n):
            if spec.mode() == "general":
                continue
            pid = dissonant_polynomial(spec, _row_labeling("natural", m), cap=cfg.cap_override)
            ok_id = is_palindromic(pid, 0, m * (n - 1))
            pu = dissonant_polynomial(spec, _row_labeling("reverse", m), cap=cfg.cap_override)
            ok_u = is_palindromic(pu, 0, m * (n + 1) - 2)
            out.append(
                IdentityReport(
                    f"fixed-row-palindromy m={m} n={n} mask={spec.edge_mask()} mode={spec.mode()}",
                    ok_id and ok_u,
                    witness=None if ok_id and ok_u else "window symmetry failed",
                )
            )
    return out


VERIFY_CHECKS: dict[str, Checker] = {
    "thm-1.1": _check_product_formula,
    "thm-main": _check_product_formula,
    "thm-1.2": _check_poset_zoo,
    "thm-3.5": _check_poset_zoo,
    "thm-2.3": _check_dyck_bijection,
    "cor-2.4": _check_narayana_model,
    "cor-3.4": _check_shift_law,
    "prop-3.6": _check_checked_product,
    "remark-product": _check_generalized_product,
    "cor-4.1": _check_row_shift,
    "lemma-4.2": _check_degree_law,
    "thm-4.3": _check_palindromy,
    "cor-5.1": _check_gamma_interpretation,
    "prop-5.2": _check_weak_descents,
    "cor-5.3": _check_fixed_row_palindromy,
}


def _sides(r: IdentityReport) -> dict:
    """Both sides of a report as JSON.  A yes/no check reads as 1 = 1 when
    it holds and 0 = 1 when it fails."""
    if r.lhs is None:
        return {"lhs": {"coeffs": ["1"] if r.holds else []}, "rhs": {"coeffs": ["1"]}}
    return {"lhs": poly_to_payload(r.lhs), "rhs": poly_to_payload(r.rhs)}


def _emit_reports(reports: list[IdentityReport], cfg: RunConfig) -> int:
    failed = [r for r in reports if not r.holds]
    if cfg.output_format == "json":
        payload = [
            {"name": r.name, "holds": r.holds, **_sides(r), "witness": r.witness}
            for r in reports
        ]
        print(json.dumps(payload))
    elif cfg.output_format == "csv":
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
    if failed and cfg.output_format == "plain":
        for r in failed:
            print(json.dumps({"name": r.name, **_sides(r), "witness": r.witness}))
    return 1 if failed else 0


def _cmd_verify(cfg: RunConfig) -> int:
    names = cfg.statements or ("all",)
    reports: list[IdentityReport] = []
    for name in names:
        if name == "all":
            seen = set()
            for key, checker in VERIFY_CHECKS.items():
                if checker in seen:
                    continue
                seen.add(checker)
                reports.extend(checker(cfg))
        elif name in VERIFY_CHECKS:
            reports.extend(VERIFY_CHECKS[name](cfg))
        else:
            raise PosetFormatError(
                f"unknown statement {name!r}; choose from "
                f"{', '.join(sorted(VERIFY_CHECKS))} or all"
            )
    if not reports:
        raise PosetFormatError(
            f"no checks ran for {' '.join(names)}: "
            "--m, --n and --max-size leave nothing to check"
        )
    return _emit_reports(reports, cfg)


# ---------------------------------------------------------------------------
# sweep


def _cmd_sweep(cfg: RunConfig) -> int:
    _need(cfg, "m", "n")
    report = conjecture_sweep(cfg.m, cfg.n, jobs=cfg.parallelism, cap=cfg.cap_override)
    rows = report.rows
    if cfg.output_format == "json":
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
    elif cfg.output_format == "csv":
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


def _refuse_csv(cfg: RunConfig) -> None:
    if cfg.output_format == "csv":
        raise PosetFormatError(f"{cfg.command} has no csv output; use --format json or plain")


def _cmd_gamma(cfg: RunConfig) -> int:
    _refuse_csv(cfg)
    _need(cfg, "m", "n")
    gi = gamma_interpretation(cfg.m, cfg.n, cap=cfg.cap_override)
    if cfg.output_format == "json":
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


def _cmd_extensions(cfg: RunConfig) -> int:
    _refuse_csv(cfg)
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
    if cfg.output_format == "json":
        print(json.dumps([list(order) for order in stream]))
    else:
        for order in stream:
            print(" ".join(map(str, order)))
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canonlab",
        description="Enumerate canon permutations and verify descent-polynomial identities",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--m", type=int, default=None, help="size of the row chain")
    common.add_argument("--n", type=int, default=None, help="number of chain copies / columns")
    common.add_argument("--w", default="natural", choices=["natural", "id", "reverse", "u"],
                        help="row labeling")
    common.add_argument("--poset", dest="poset_file", default=None, help="poset JSON file")
    common.add_argument("--remove", default="", help='inter-copy covers to delete, "row:j,row:j"')
    common.add_argument("--checked", action="store_true", help="use the checked product")
    common.add_argument("--repair", action="store_true",
                        help="repair redundant covers by transitive reduction on load")
    common.add_argument("--format", dest="output_format", default="plain",
                        choices=["json", "csv", "plain"])
    common.add_argument("--jobs", dest="parallelism", type=int, default=1)
    common.add_argument("--force-cap", dest="cap_override", type=int, default=None,
                        help="raise the |P|*n cap on sums over all column labelings")
    common.add_argument("--max-size", dest="max_size", type=int, default=9,
                        help="bound on |P|*n for default verification grids")

    sub = parser.add_subparsers(dest="command", required=True)

    poly = sub.add_parser("poly", parents=[common], help="compute a named polynomial")
    poly.add_argument("kind", choices=[
        "canon", "canon-product", "eulerian", "narayana", "hstar", "dissonant", "weak-descent",
    ])

    verify = sub.add_parser("verify", parents=[common], help="machine-check identities")
    verify.add_argument("statements", nargs="+",
                        help=f"statement ids ({', '.join(sorted(VERIFY_CHECKS))}) or all")

    sweep = sub.add_parser("sweep", parents=[common], help="exhaustive subposet sweeps")
    sweep.add_argument("kind", choices=["gamma"])

    sub.add_parser("gamma", parents=[common], help="gamma-coefficient interpretation counts")

    ext = sub.add_parser("extensions", parents=[common], help="enumerate linear extensions")
    ext.add_argument("--count-only", action="store_true", dest="count_only")
    ext.add_argument("--limit", type=int, default=None)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        subcommand=getattr(args, "kind", None),
        m=args.m,
        n=args.n,
        w=args.w,
        poset_file=args.poset_file,
        remove=args.remove,
        checked=args.checked,
        repair=args.repair,
        count_only=getattr(args, "count_only", False),
        limit=getattr(args, "limit", None),
        max_size=args.max_size,
        output_format=args.output_format,
        parallelism=args.parallelism,
        cap_override=args.cap_override,
        statements=tuple(getattr(args, "statements", ()) or ()),
    )


def run(cfg: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    try:
        if cfg.command == "poly":
            return _cmd_poly(cfg)
        if cfg.command == "verify":
            return _cmd_verify(cfg)
        if cfg.command == "sweep":
            return _cmd_sweep(cfg)
        if cfg.command == "gamma":
            return _cmd_gamma(cfg)
        if cfg.command == "extensions":
            return _cmd_extensions(cfg)
        raise PosetFormatError(f"unknown command {cfg.command!r}")
    except ValueError as exc:  # size caps, malformed files and arguments
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CanonlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    code = run(config_from_args(args))
    if argv is None:
        sys.exit(code)
    return code
