"""The ``verify`` command: the checks of the paper's statements, and the
definitional oracles that they and the tests compare the library against.

Only ``verify`` loads this module (``cli`` imports it on first use), so no
other command compiles it.  A check runs one case (m, n, *rest) and
returns its reports, none for a case outside its statement; only
``_select`` reads ``--m`` and ``--n``.  ``VERIFY_CHECKS`` lists every
statement with its default cases, and the README's verification registry
has one row per entry.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict
from functools import lru_cache, partial
from itertools import accumulate, permutations, product
from math import comb, factorial
from operator import mul
from typing import Callable, NamedTuple, Optional, Sequence

from canonlab import kernel
from canonlab.canon import (
    AmphibianSpec,
    _product_form,
    _row_sum,
    _Sized,
    canon_polynomial_bruteforce,
    canon_polynomial_product,
    canon_rows,
)
from canonlab.cli import MAX_LISTED, _print_csv, _row_labeling
from canonlab.errors import PosetFormatError, SizeCapError
from canonlab.gamma import gamma_interpretation
from canonlab.linext import enumerate_linear_extensions
from canonlab.polys import IntPolynomial, hstar, is_palindromic, narayana, poly_to_payload
from canonlab.poset import (
    Poset,
    _check_size,
    canon_labeling,
    chain,
    checked_labeling,
    checked_product,
    natural_labeling,
    product_with_chain,
)
from canonlab.sweep import MAX_SUBPOSETS, dissonant_polynomials, subposet_masks


class IdentityReport(NamedTuple):
    """Outcome of one check, self-diagnosing on failure.

    A polynomial identity carries its two sides in ``lhs`` and ``rhs``; a
    check whose outcome is only yes or no leaves both ``None``.
    """

    name: str
    holds: bool
    lhs: Optional[IntPolynomial] = None
    rhs: Optional[IntPolynomial] = None
    witness: Optional[str] = None

    @classmethod
    def compare(cls, name: str, lhs: IntPolynomial, rhs: IntPolynomial) -> "IdentityReport":
        if lhs == rhs:
            return cls(name, True, lhs, rhs)
        top = max(lhs.degree, rhs.degree)
        mismatch = next(
            k for k in range(top + 1) if lhs.coefficient(k) != rhs.coefficient(k)
        )
        witness = (
            f"coefficient of x^{mismatch}: {lhs.coefficient(mismatch)} != "
            f"{rhs.coefficient(mismatch)}"
        )
        return cls(name, False, lhs, rhs, witness)


# ---------------------------------------------------------------------------
# definitional oracles

MAX_LABELINGS = 362_880  # 9!


def column_labelings(n: int) -> _Sized:
    """The permutations of 1..n as tuples, refused first past
    ``MAX_LABELINGS``: a sized view that lists none until it is walked."""
    # running products of 1..n: a huge n stops early instead of computing n!
    if any(count > MAX_LABELINGS for count in accumulate(range(1, n + 1), mul)):
        raise SizeCapError(f"{n}! column labelings exceed the bound {MAX_LABELINGS}")
    return _Sized(factorial(n), lambda: permutations(range(1, n + 1)))


def antichain(n: int) -> Poset:
    """n pairwise-incomparable elements."""
    if n < 1:
        raise ValueError("antichain size must be >= 1")
    return Poset(n, frozenset())


def word(order: Sequence[int], w: Sequence[int]) -> tuple[int, ...]:
    """The label word of an extension."""
    return tuple(w[v] for v in order)


def descent_set(letters: Sequence[int]) -> tuple[int, ...]:
    """1-based positions j with a strict drop between letters j and j+1."""
    return tuple(j for j in range(1, len(letters)) if letters[j] < letters[j - 1])


def descent_count(letters: Sequence[int]) -> int:
    return len(descent_set(letters))


def mirrored(p: IntPolynomial, high: int) -> IntPolynomial:
    """The coefficients of p reflected across the window [0, high], k to
    high - k, defined when the support fits below high: p is palindromic
    over the window iff it equals its mirror image."""
    if p.degree > high:
        raise ValueError("support extends beyond the reflection window")
    return IntPolynomial(p.coefficient(high - k) for k in range(high + 1))


def is_valid_extension(p: Poset, order: Sequence[int]) -> bool:
    if sorted(order) != list(range(p.element_count)):
        return False
    pos = {v: i for i, v in enumerate(order)}
    return all(pos[a] < pos[b] for a, b in p.covers)


def weak_descent_count(letters: Sequence[int]) -> int:
    """Positions where the word drops or stays level."""
    return sum(1 for j in range(1, len(letters)) if letters[j] <= letters[j - 1])


def multiset_word(order: Sequence[int], canon_label: Sequence[int], m: int) -> tuple[int, ...]:
    """Collapse a canon-labeled extension to its multiset permutation.

    Letter i is ``ceil(label_i / m)``, i.e. the column value of the copy
    containing the i-th element.
    """
    return tuple((canon_label[v] + m - 1) // m for v in order)


def is_canon_permutation(letters: Sequence[int], m: int) -> bool:
    """True iff all m copy-subsequences of the multiset word are identical.

    The j-th copy subsequence collects the j-th occurrence of every letter
    in position order.
    """
    occ = defaultdict(list)
    for i, v in enumerate(letters):
        occ[v].append(i)
    if any(len(positions) != m for positions in occ.values()):
        return False
    patterns = set()
    for copy in range(m):
        subseq = tuple(v for _, v in sorted((occ[v][copy], v) for v in occ))
        patterns.add(subseq)
    return len(patterns) == 1


def order_polynomial_values(p: Poset, w: Sequence[int], j_max: int) -> tuple[int, ...]:
    """Values of the labeled order polynomial at 0..j_max, by exhaustive
    enumeration of maps into {0..j}.

    A map counts when it is weakly order-preserving and strict on every
    comparable pair whose labels invert.  This is the definitional brute
    force, independent of the extension-based route.
    """
    n = p.element_count
    pairs = [(a, b) for a in range(n) for b in range(n) if p.less(a, b)]
    strict = [(a, b) for a, b in pairs if w[a] > w[b]]
    weak = [(a, b) for a, b in pairs if w[a] <= w[b]]
    if (j_max + 1) ** n > 50_000_000:
        raise SizeCapError("order polynomial brute force is too large")
    out = []
    for j in range(j_max + 1):
        count = 0
        for values in product(range(j + 1), repeat=n):
            if all(values[a] <= values[b] for a, b in weak) and all(
                values[a] < values[b] for a, b in strict
            ):
                count += 1
        out.append(count)
    return tuple(out)


def _rho_drops(parities: Sequence[int], order: Sequence[int]) -> tuple[list[int], list[int]]:
    """The rho-descent positions of an extension and the double ones
    among them, given every element's rho parity: the oracle for ``gamma.rho_halves``.

    Position j is a rho-descent when the pair (parity, label) strictly
    falls from letter j to letter j+1; it is double when j-1 is also one,
    or when j = 1.  The pair is compared as the int parity * n + label.
    """
    n = len(parities)
    keys = [parities[v] * n + v for v in order]
    drops = [j for j in range(1, len(keys)) if keys[j] < keys[j - 1]]
    dropset = set(drops)
    return drops, [j for j in drops if j == 1 or j - 1 in dropset]


def _weak_descent_lanes(m: int, n: int) -> IntPolynomial:
    """The weak-descent polynomial by its definition, the oracle for
    ``weak_descent_polynomial``: one kernel lane per sigma, on the multiset
    letters ceil(label / m) negated, n + 1 - sigma(j) at (x, j), whose
    descents are the strict ascents, so each row reads backwards."""
    sigmas = column_labelings(n)
    letters = _Sized(len(sigmas),
                     lambda: ([n + 1 - s for s in sigma for _ in range(m)] for sigma in sigmas))
    rows = kernel.descent_histograms(product_with_chain(chain(m), n), letters)
    return mirrored(_row_sum(rows), m * n - 1)


# ---------------------------------------------------------------------------
# Dyck paths: a path is its string of e/n steps


def is_dyck_path(steps: str) -> bool:
    """True iff ``steps`` is a string of e/n steps, as many of each, that
    never rises above the diagonal: a Dyck path."""
    height = 0
    for s in steps:
        if s == "e":
            height += 1
        elif s == "n" and height:
            height -= 1
        else:
            return False
    return height == 0


def high_peak_positions(steps: str) -> tuple[int, ...]:
    """1-based step indices starting an e,n peak that avoids the diagonal."""
    out = []
    x = y = 0
    for i, s in enumerate(steps):
        if s == "e":
            x += 1
            if i + 1 < len(steps) and steps[i + 1] == "n" and x - y >= 2:
                out.append(i + 1)
        else:
            y += 1
    return tuple(out)


@lru_cache(maxsize=1)  # a walk over one grid's extensions checks it once
def _require_two_row_grid(p: Poset) -> int:
    n, r = divmod(p.element_count, 2)
    if r or n < 1 or p != product_with_chain(chain(2), n):
        raise ValueError("expected the product of a 2-chain with a chain")
    return n


def dyck_from_linext(p: Poset, order: Sequence[int]) -> str:
    """Encode an extension of the two-row grid as the steps of a Dyck path.

    Under the natural labeling the bottom row holds the odd labels, so an
    element maps to an east step iff its index is even.
    """
    _require_two_row_grid(p)
    if not is_valid_extension(p, order):
        raise ValueError("not a linear extension of the given poset")
    return "".join("e" if v % 2 == 0 else "n" for v in order)


def linext_from_dyck(steps: str) -> tuple[int, ...]:
    """Inverse encoding: east steps emit the bottom row in order, north
    steps the top row."""
    order = []
    e = n = 0
    for s in steps:
        if s == "e":
            order.append(2 * e)
            e += 1
        else:
            order.append(2 * n + 1)
            n += 1
    return tuple(order)


# ---------------------------------------------------------------------------
# identities


def checked_product_identity(p: Poset, w: Sequence[int], n: int) -> IdentityReport:
    """Brute-force canon polynomial vs the descent polynomial of the
    checked product under the checked labeling."""
    lhs = canon_polynomial_bruteforce(p, w, n)
    rhs = hstar(checked_product(p, n), checked_labeling(w, n))
    return IdentityReport.compare(f"checked-product m={p.element_count} n={n}", lhs, rhs)


def generalized_product_identity(p: Poset, w: Sequence[int], pprime: Poset) -> IdentityReport:
    """Sum of product descent polynomials over the extensions of a second
    poset vs the factored form x^k * h*(P') * h*(P x [n])."""
    n, nat = pprime.element_count, natural_labeling(pprime)
    # sized first, so the kernel can refuse before any word is listed
    words = _Sized(kernel.count_extensions(pprime),
                   lambda: (word(ext, nat) for ext in enumerate_linear_extensions(pprime)))
    lhs = _row_sum(canon_rows(product_with_chain(p, n), w, words))
    rhs = _product_form(p, w, n, lambda: hstar(pprime))
    return IdentityReport.compare(
        f"generalized-product m={p.element_count} |P'|={n}", lhs, rhs
    )


def degree_witness_extension(spec: AmphibianSpec) -> tuple[int, ...]:
    """The row-block extension: each row's copies in copy order, rows in
    chain order.  Valid in every amphibian subposet."""
    m, n = spec.m, spec.n
    return tuple(row + j * m for row in range(m) for j in range(n))


@lru_cache(maxsize=MAX_SUBPOSETS)  # checked once per mask, under both row labelings
def _witness_valid(spec: AmphibianSpec) -> bool:
    """Whether the row-block witness is an extension of the subposet."""
    return is_valid_extension(spec.poset(), degree_witness_extension(spec))


def dissonant_degree_check(spec: AmphibianSpec, w: Sequence[int],
                           poly: IntPolynomial) -> IdentityReport:
    """Assert deg C = m(n-1) + k for the dissonant polynomial ``poly`` of
    ``spec`` under w, carrying the row-block witness word."""
    k = descent_count(w)
    expected = spec.m * (spec.n - 1) + k
    witness_ext = degree_witness_extension(spec)
    rev = range(spec.n, 0, -1)
    valid = _witness_valid(spec)
    wdes = descent_count(word(witness_ext, canon_labeling(w, rev)))
    report = IdentityReport.compare(
        f"dissonant-degree m={spec.m} n={spec.n} mask={spec.mask} mode={spec.mode()}",
        IntPolynomial((1,)).shift(max(poly.degree, 0)),
        IntPolynomial((1,)).shift(expected),
    )
    witness = (
        f"degree {poly.degree} vs m(n-1)+k = {expected}; row-block witness "
        f"{'valid' if valid else 'INVALID'} with {wdes} descents under the reversed columns"
    )
    return report._replace(holds=report.holds and valid, witness=witness)


def dissonant_palindromy_check(spec: AmphibianSpec, w: Sequence[int],
                               poly: IntPolynomial) -> IdentityReport:
    """Palindromicity of the dissonant polynomial ``poly`` of ``spec``
    under w over [0, m(n-1)+2k]."""
    k = descent_count(w)
    top = spec.m * (spec.n - 1) + 2 * k
    holds = is_palindromic(poly, top)
    rhs = mirrored(poly, top) if poly.degree <= top else poly
    witness = None if holds else f"not symmetric over [0, {top}]"
    return IdentityReport(
        f"dissonant-palindromy m={spec.m} n={spec.n} mask={spec.mask} mode={spec.mode()}",
        holds,
        poly,
        rhs,
        witness,
    )


# ---------------------------------------------------------------------------
# statement checks


def _select(cfg: argparse.Namespace, cases: Sequence[tuple]) -> list[tuple]:
    """The cases a check runs.  A given ``--m`` or ``--n`` keeps the default
    cases with that value.  When m and n are both known (each given, or
    the one value every default case has) and no default case has both,
    the check runs at that m and n instead, and nothing for m < 1 or n < 1."""
    ms = {c[0] for c in cases} if cfg.m is None else {cfg.m}
    ns = {c[1] for c in cases} if cfg.n is None else {cfg.n}
    if len(ms) == len(ns) == 1 and not any(c[0] in ms and c[1] in ns for c in cases):
        (m,), (n,) = ms, ns
        return list(dict.fromkeys((m, n, *c[2:]) for c in cases)) if m >= 1 and n >= 1 else []
    return [c for c in cases if c[0] in ms and c[1] in ns]


def _check_product_formula(cfg: argparse.Namespace, m: int, n: int) -> list[IdentityReport]:
    kind = cfg.w or "natural"
    w = _row_labeling(kind, m)
    lhs = canon_polynomial_bruteforce(chain(m), w, n)
    rhs = canon_polynomial_product(chain(m), w, n)
    return [IdentityReport.compare(f"product-formula m={m} n={n} w={kind}", lhs, rhs)]


def _check_labeled_product(
    cfg: argparse.Namespace, m: int, n: int, name: str, covers: tuple, w: tuple[int, ...]
) -> list[IdentityReport]:
    if m != len(w):  # m is |P|
        return []
    p = Poset(m, frozenset(covers))
    lhs = canon_polynomial_bruteforce(p, w, n)
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
    sigmas, grid = column_labelings(n), product_with_chain(chain(m), n)
    # each row comes before its sigma, so a refusal lists no sigma
    rows = zip(canon_rows(grid, _row_labeling("natural", m), sigmas), sigmas)
    base = IntPolynomial(next(rows)[0])  # sigma = the identity
    bad = next((s for row, s in rows if IntPolynomial(row) != base.shift(descent_count(s))), None)
    detail = None if bad is None else f"failed at sigma={bad}"
    return [IdentityReport(f"shift-law m={m} n={n}", bad is None, witness=detail)]


def _check_checked_product(cfg: argparse.Namespace, m: int, n: int) -> list[IdentityReport]:
    return [checked_product_identity(chain(m), _row_labeling("natural", m), n)]


def _star(n: int) -> Poset:
    """One element below n - 1 pairwise-incomparable others."""
    return Poset(n, ((0, i) for i in range(1, n)))


def _check_generalized_product(
    cfg: argparse.Namespace, m: int, n: int, second: Callable[[int], Poset]
) -> list[IdentityReport]:
    p, w, pprime = chain(m), _row_labeling("natural", m), second(n)  # n is |P'|
    return [generalized_product_identity(p, w, pprime)]


def _row_shift_inputs(m: int, n: int) -> tuple[_Sized, range]:
    """The sigmas and the masks of cor-4.1, which lists every sigma on
    every subposet, refused first past ``MAX_LABELINGS`` pairs."""
    sigmas = column_labelings(n)
    _check_size(m)  # the poset bound on m comes before the subposet bound
    masks = subposet_masks(m, n)
    if len(masks) * len(sigmas) > MAX_LABELINGS:
        raise SizeCapError(f"{len(masks)} subposets x {n}! column labelings exceed "
                           f"the bound {MAX_LABELINGS}")
    return sigmas, masks


def _check_row_shift(cfg: argparse.Namespace, m: int, n: int) -> list[IdentityReport]:
    # labeled subposets: h* under (w x sigma) equals x^k h* under (id x sigma)
    sigmas, masks = _row_shift_inputs(m, n)
    w, ident = _row_labeling("reverse", m), _row_labeling("natural", m)
    k = m - 1
    detail = None
    # the full mask first: it has the most transitions, so it is refused first
    for mask in reversed(masks):
        q = AmphibianSpec(m, n, mask).poset()
        pairs = zip(canon_rows(q, w, sigmas), canon_rows(q, ident, sigmas), sigmas)
        bad = next((s for a, b, s in pairs if IntPolynomial(a) != IntPolynomial(b).shift(k)), None)
        if bad is not None:
            detail = f"mask={mask} sigma={bad}"
            break
    return [IdentityReport(f"row-shift m={m} n={n}", detail is None, witness=detail)]


def _check_dissonant(cfg: argparse.Namespace, m: int, n: int,
                     law: Callable[..., IdentityReport]) -> list[IdentityReport]:
    # lemma-4.2's degree or thm-4.3's palindromy on every subposet, natural rows first
    masks = subposet_masks(m, n)
    labelings = [_row_labeling(kind, m) for kind in ("natural", "reverse")]
    return [law(AmphibianSpec(m, n, mask), w, poly)
            for w in labelings for mask, poly in dissonant_polynomials(m, n, w, masks).items()]


def _check_gamma_interpretation(cfg: argparse.Namespace, m: int, n: int) -> list[IdentityReport]:
    gi = gamma_interpretation(m, n)
    detail = f"gamma={gi.gamma} counts={gi.counts} shift={gi.shift} stated={gi.stated_shift}"
    return [IdentityReport(f"gamma-interpretation m={m} n={n}", gi.matches, witness=detail)]


def _check_weak_descents(cfg: argparse.Namespace, m: int, n: int) -> list[IdentityReport]:
    lhs = _weak_descent_lanes(m, n)
    rhs = canon_polynomial_bruteforce(chain(m), _row_labeling("natural", m), n).shift(m - 1)
    return [IdentityReport.compare(f"weak-descents m={m} n={n}", lhs, rhs)]


def _check_fixed_row_palindromy(cfg: argparse.Namespace, m: int, n: int) -> list[IdentityReport]:
    # fixed-row subposets are palindromic in thm-4.3's windows, m(n-1)
    # under the identity rows and m(n+1)-2 under the reversed ones
    labelings = (_row_labeling("natural", m), _row_labeling("reverse", m))
    masks = [mask for mask in subposet_masks(m, n) if AmphibianSpec(m, n, mask).mode() != "general"]
    tables = [(w, dissonant_polynomials(m, n, w, masks)) for w in labelings]
    out = []
    for spec in map(partial(AmphibianSpec, m, n), masks):
        ok = all(dissonant_palindromy_check(spec, w, t[spec.mask]).holds for w, t in tables)
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

# id -> (check, default cases)
VERIFY_CHECKS: dict[str, tuple[Callable[..., list[IdentityReport]], tuple]] = {
    "thm-1.1": (_check_product_formula, _GRIDS),
    "thm-main": (_check_product_formula, _GRIDS),
    "thm-1.2": (_check_labeled_product, _ZOO),
    "thm-3.5": (_check_labeled_product, _ZOO),
    "thm-2.3": (_check_dyck_bijection, tuple((2, n) for n in range(1, 7))),
    "cor-2.4": (_check_narayana_model, tuple((2, n) for n in range(1, 8))),
    "cor-3.4": (_check_shift_law, tuple((m, n) for m in (1, 2, 3) for n in (2, 3))),
    "prop-3.6": (_check_checked_product, _GRIDS),
    "remark-product": (_check_generalized_product,
                       tuple((2, 3, second) for second in (antichain, chain, _star))),
    "cor-4.1": (_check_row_shift, _SUBPOSET_GRIDS),
    "lemma-4.2": (_check_dissonant,
                  tuple((m, n, dissonant_degree_check) for m, n in _DISSONANT_GRIDS)),
    "thm-4.3": (_check_dissonant,
                tuple((m, n, dissonant_palindromy_check) for m, n in _DISSONANT_GRIDS)),
    "cor-5.1": (_check_gamma_interpretation, ((2, 2), (3, 2), (2, 3), (3, 3))),
    "prop-5.2": (_check_weak_descents, _GRIDS),
    "cor-5.3": (_check_fixed_row_palindromy, _SUBPOSET_GRIDS),
}


# ---------------------------------------------------------------------------
# output


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
        _print_csv(["name", "holds", "witness"],
                   ([r.name, str(r.holds).lower(), r.witness or ""] for r in reports))
    else:
        for r in reports:
            mark = "ok" if r.holds else "FAIL"
            extra = f"  ({r.witness})" if (r.witness and not r.holds) else ""
            print(f"[{mark}] {r.name}{extra}")
        print(f"{len(reports) - len(failed)}/{len(reports)} checks hold")
        for r in failed:
            print(json.dumps({"name": r.name, **_sides(r), "witness": r.witness}))
    return 1 if failed else 0


def run(cfg: argparse.Namespace) -> int:
    """Run the checks of ``cfg.statements`` and print their reports;
    returns the exit status, 1 when any check fails."""
    names = cfg.statements
    entries = []  # every name resolved before any case runs
    for name in names:
        if name == "all":
            entries += dict.fromkeys(VERIFY_CHECKS.values())  # each alias once
        elif name in VERIFY_CHECKS:
            entries.append(VERIFY_CHECKS[name])
        else:
            raise PosetFormatError(
                f"unknown statement {name!r}; choose from "
                f"{', '.join(sorted(VERIFY_CHECKS))} or all"
            )
    cases = [(check, case) for check, defaults in entries for case in _select(cfg, defaults)]
    for check, case in cases:  # cor-4.1's bound, on every selected case first
        if check is _check_row_shift:
            _row_shift_inputs(*case)
    reports = [report for check, case in cases for report in check(cfg, *case)]
    if not reports:
        raise PosetFormatError(
            f"no checks ran for {' '.join(names)}: "
            "--m and --n leave nothing to check"
        )
    return _emit_reports(reports, cfg)
