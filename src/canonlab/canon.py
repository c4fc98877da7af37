"""Canon, dissonant and weak-descent polynomials, and the identity checks.

The brute-force definitional computations here are the source of truth;
the closed forms (product formulas, degree and palindromicity laws,
gamma interpretations) are the things under test.  Every sum over column
labelings sigma takes its sigma list from ``column_labelings``, which
checks the size caps, and its rows from ``canon_rows``: one kernel call
per poset and row labeling w, one descent histogram per w x sigma.  The
edge-subset sweep fans its subposets out over worker processes.
"""

from __future__ import annotations

import os
from itertools import accumulate, permutations
from operator import mul
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from canonlab import kernel
from canonlab.errors import CanonlabError, SizeCapError
from canonlab.linext import (
    descent_count,
    enumerate_linear_extensions,
    is_valid_extension,
    rho_filtered_extensions,
    word,
)
from canonlab.polys import (
    IntPolynomial,
    check_named_n,
    eulerian,
    gamma_expansion,
    hstar,
    is_palindromic,
    is_unimodal,
    poly_to_payload,
)
from canonlab.poset import (
    Poset,
    canon_labeling,
    chain,
    chain_descents,
    checked_labeling,
    checked_product,
    natural_labeling,
    poset_to_json,
    product_with_chain,
    remove_intercopy_covers,
)


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


class AmphibianSpec(NamedTuple):
    """A chain product with a chosen set of inter-copy covers removed,
    named by its edge mask.

    Bit i of ``mask`` removes the i-th cover of ``removable_edges(m, n)``,
    so the cover ``(row, j) < (row, j+1)`` is bit ``(row-1)(n-1) + j-1``;
    intra-copy covers always stay.
    """

    m: int
    n: int
    mask: int

    @classmethod
    def from_removed(
        cls, m: int, n: int, pairs: Iterable[tuple[int, int]]
    ) -> "AmphibianSpec":
        """The spec removing the 1-based covers ``(row, j)`` in ``pairs``."""
        mask = 0
        for row, j in pairs:
            if not (1 <= row <= m and 1 <= j <= n - 1):
                raise ValueError(f"removable edge (row={row}, j={j}) out of range")
            mask |= 1 << (row - 1) * (n - 1) + j - 1
        return cls(m, n, mask)

    @property
    def removed(self) -> tuple[tuple[int, int], ...]:
        """The removed covers as 1-based pairs ``(row, j)``, row-major."""
        k = self.n - 1
        return tuple(
            (i // k + 1, i % k + 1)
            for i in range(self.mask.bit_length())
            if self.mask >> i & 1
        )

    def poset(self) -> Poset:
        grid = product_with_chain(chain(self.m), self.n)
        return remove_intercopy_covers(grid, self.m, self.removed)

    def mode(self) -> str:
        """How the removals relate to the multiset-permutation picture:
        'canon' keeps everything, 'fixed-row' leaves at least one row
        untouched (its copies stay chained, fixing one subsequence), and
        'general' touches every row."""
        if not self.mask:
            return "canon"
        k = self.n - 1
        row_bits = (1 << k) - 1
        if all(self.mask >> row * k & row_bits for row in range(self.m)):
            return "general"
        return "fixed-row"


def removable_edges(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """Inter-copy covers of the m x n grid, row-major (1-based)."""
    return tuple((row, j) for row in range(1, m + 1) for j in range(1, n))


PRODUCT_CAP = 12
MAX_LABELINGS = 362_880  # 9!


def column_labelings(
    size: int,
    n: int,
    cap: Optional[int] = None,
    pprime: Optional[Poset] = None,
    subposets: int = 1,
) -> list[tuple[int, ...]]:
    """The column labelings of a sum over P x [n], |P| = ``size``: the
    permutations of 1..n, or the naturally labeled extension words of
    ``pprime`` (n elements), as tuples.  Refuses first when ``size * n``
    passes ``cap`` (default ``PRODUCT_CAP``) or when the labelings of all
    ``subposets`` sums, ``subposets * n!``, pass ``MAX_LABELINGS``."""
    limit = PRODUCT_CAP if cap is None else cap
    if size * n > limit:
        raise SizeCapError(
            f"|P|*n = {size * n} exceeds the brute-force cap {limit} "
            "(raise it with --force-cap)"
        )
    # running products of 1..n: a huge n stops early instead of computing n!
    if any(subposets * count > MAX_LABELINGS for count in accumulate(range(1, n + 1), mul)):
        what = f"{n}!" if subposets == 1 else f"{subposets} subposets x {n}!"
        raise SizeCapError(f"{what} column labelings exceed the bound {MAX_LABELINGS}")
    if pprime is None:
        return list(permutations(range(1, n + 1)))
    nat = natural_labeling(pprime)
    return [word(ext, nat) for ext in enumerate_linear_extensions(pprime)]


def canon_rows(
    q: Poset, w: Sequence[int], sigmas: Sequence[Sequence[int]]
) -> list[list[int]]:
    """The descent histogram of ``q`` under each canon labeling w x sigma,
    one row per sigma, from one kernel call."""
    return kernel.descent_histograms(q, [canon_labeling(w, sigma) for sigma in sigmas])


def _row_sum(rows: Sequence[Sequence[int]]) -> IntPolynomial:
    return IntPolynomial(tuple(map(sum, zip(*rows))))


def canon_polynomial_bruteforce(
    p: Poset, w: Sequence[int], n: int, cap: Optional[int] = None
) -> IntPolynomial:
    """Descent polynomial of all canon permutations of (p, w): the sum of
    the descent polynomials of p x [n] over every column labeling."""
    sigmas = column_labelings(p.element_count, n, cap)
    return _row_sum(canon_rows(product_with_chain(p, n), w, sigmas))


def _product_form(
    p: Poset, w: Sequence[int], n: int, first: Callable[[], IntPolynomial]
) -> IntPolynomial:
    """x^k * ``first()`` * h* of the naturally labeled product p x [n],
    where k is the number of descents on every maximal chain of (p, w).
    The first factor, A_n or h*(P'), is computed last: a product the
    kernel refuses costs nothing more."""
    k = chain_descents(p, w)
    if k is None:
        raise CanonlabError("product form needs a labeling with constant chain descents")
    base = hstar(product_with_chain(p, n), canon_labeling(natural_labeling(p), range(1, n + 1)))
    return (first() * base).shift(k)


def canon_polynomial_product(p: Poset, w: Sequence[int], n: int) -> IntPolynomial:
    """Closed product form: x^k * A_n * h* of the naturally labeled product.

    Requires every maximal chain of (p, w) to carry the same number k of
    descents.
    """
    check_named_n(n)
    return _product_form(p, w, n, lambda: eulerian(n))


def checked_product_identity(
    p: Poset, w: Sequence[int], n: int, cap: Optional[int] = None
) -> IdentityReport:
    """Brute-force canon polynomial vs the descent polynomial of the
    checked product under the checked labeling."""
    lhs = canon_polynomial_bruteforce(p, w, n, cap=cap)
    rhs = hstar(checked_product(p, n), checked_labeling(w, n))
    return IdentityReport.compare(f"checked-product m={p.element_count} n={n}", lhs, rhs)


def generalized_product_identity(
    p: Poset, w: Sequence[int], pprime: Poset, cap: Optional[int] = None
) -> IdentityReport:
    """Sum of product descent polynomials over the extensions of a second
    poset vs the factored form x^k * h*(P') * h*(P x [n])."""
    n = pprime.element_count
    sigmas = column_labelings(p.element_count, n, cap, pprime=pprime)
    rhs = _product_form(p, w, n, lambda: hstar(pprime))
    lhs = _row_sum(canon_rows(product_with_chain(p, n), w, sigmas))
    return IdentityReport.compare(
        f"generalized-product m={p.element_count} |P'|={n}", lhs, rhs
    )


def dissonant_polynomial(
    spec: AmphibianSpec, w: Sequence[int], cap: Optional[int] = None
) -> IntPolynomial:
    """Descent polynomial of the subposet's labeled extensions, summed
    over every column labeling."""
    sigmas = column_labelings(spec.m, spec.n, cap)
    return _row_sum(canon_rows(spec.poset(), w, sigmas))


def degree_witness_extension(spec: AmphibianSpec) -> tuple[int, ...]:
    """The row-block extension: each row's copies in copy order, rows in
    chain order.  Valid in every amphibian subposet."""
    m, n = spec.m, spec.n
    return tuple(row + j * m for row in range(m) for j in range(n))


def dissonant_degree_check(
    spec: AmphibianSpec, w: Sequence[int], cap: Optional[int] = None
) -> IdentityReport:
    """Assert deg C = m(n-1) + k, carrying the row-block witness word."""
    k = descent_count(w)
    poly = dissonant_polynomial(spec, w, cap=cap)
    expected = spec.m * (spec.n - 1) + k
    witness_ext = degree_witness_extension(spec)
    rev = range(spec.n, 0, -1)
    q = spec.poset()
    valid = is_valid_extension(q, witness_ext)
    wdes = descent_count(word(witness_ext, canon_labeling(w, rev)))
    report = IdentityReport.compare(
        f"dissonant-degree m={spec.m} n={spec.n} mask={spec.mask} mode={spec.mode()}",
        IntPolynomial.x_power(max(poly.degree, 0)),
        IntPolynomial.x_power(expected),
    )
    witness = (
        f"degree {poly.degree} vs m(n-1)+k = {expected}; row-block witness "
        f"{'valid' if valid else 'INVALID'} with {wdes} descents under the reversed columns"
    )
    return report._replace(holds=report.holds and valid, witness=witness)


def dissonant_palindromy_check(
    spec: AmphibianSpec, w: Sequence[int], cap: Optional[int] = None
) -> IdentityReport:
    """Palindromicity of the dissonant polynomial over [0, m(n-1)+2k]."""
    k = descent_count(w)
    poly = dissonant_polynomial(spec, w, cap=cap)
    top = spec.m * (spec.n - 1) + 2 * k
    holds = is_palindromic(poly, 0, top)
    rhs = poly.mirrored(0, top) if poly.degree <= top else poly
    witness = None if holds else f"not symmetric over [0, {top}]"
    return IdentityReport(
        f"dissonant-palindromy m={spec.m} n={spec.n} mask={spec.mask} mode={spec.mode()}",
        holds,
        poly,
        rhs,
        witness,
    )


def weak_descent_polynomial(m: int, n: int, cap: Optional[int] = None) -> IntPolynomial:
    """Weak-descent polynomial of canon permutations, computed two ways.

    Route one counts weak descents of the canon words directly, in one
    kernel call whose labels are the multiset letters ceil(label / m);
    route two reuses the canon polynomial under the reversed row labeling.
    A mismatch signals a bug, not a mathematical discovery.
    """
    sigmas = column_labelings(m, n, cap)
    grid = product_with_chain(chain(m), n)
    ident = tuple(range(1, m + 1))
    letters = [
        [(label + m - 1) // m for label in canon_labeling(ident, sigma)]
        for sigma in sigmas
    ]
    direct = _row_sum(kernel.descent_histograms(grid, letters, weak=True))
    via_reverse = _row_sum(canon_rows(grid, tuple(range(m, 0, -1)), sigmas))
    if direct != via_reverse:
        raise CanonlabError(
            "weak-descent routes disagree: "
            f"{direct.coefficients} vs {via_reverse.coefficients}"
        )
    return direct


def canon_word_of_checked_extension(m: int, n: int, order: Sequence[int]) -> tuple[int, ...]:
    """Translate an extension of the checked product into a canon
    permutation: the top elements, read in order, give the column
    permutation, and each product element contributes that column value."""
    mn = m * n
    sigma = tuple(v - mn + 1 for v in order[mn:])
    return tuple(sigma[v // m] for v in order[:mn])


class GammaInterpretation(NamedTuple):
    """Gamma coordinates of the canon polynomial next to the counts of
    filtered checked-product extensions.

    ``shift`` is the offset that aligns the filtered rho-descent counts
    with the gamma indices; ``stated_shift`` is floor((m+n-1)/2).  When
    they differ, or no offset works, ``matches`` is False and the caller
    sees the empirically correct value instead of a silent pass.
    """

    m: int
    n: int
    gamma: tuple[int, ...]
    counts: tuple[int, ...]
    stated_shift: int
    shift: Optional[int]
    matches: bool
    words: tuple[tuple[tuple[int, ...], ...], ...]


def gamma_interpretation(m: int, n: int, cap: Optional[int] = None) -> GammaInterpretation:
    """Count checked-product extensions with i+d rho-descents, no double
    rho-descents and an increasing final pair when both parities are odd,
    and compare the counts against the gamma vector of the canon
    polynomial."""
    poly = canon_polynomial_bruteforce(chain(m), tuple(range(1, m + 1)), n, cap=cap)
    center = m * (n - 1)
    expansion = gamma_expansion(poly, center)
    if expansion is None:
        raise CanonlabError("canon polynomial is not palindromic over its center")
    gamma = expansion.gamma
    by_count: dict[int, list[tuple[int, ...]]] = {}
    for order, drops in rho_filtered_extensions(checked_product(chain(m), n)):
        by_count.setdefault(drops, []).append(canon_word_of_checked_extension(m, n, order))

    stated = (m + n - 1) // 2

    def counts_at(s: int) -> Optional[tuple[int, ...]]:
        if any(r < s or r >= s + len(gamma) for r in by_count):
            return None
        return tuple(len(by_count.get(s + i, [])) for i in range(len(gamma)))

    shift: Optional[int] = None
    if counts_at(stated) == gamma:
        shift = stated
    else:
        for s in range(center + 1):
            if counts_at(s) == gamma:
                shift = s
                break
    matches = shift == stated
    base = shift if shift is not None else stated
    counts = tuple(len(by_count.get(base + i, [])) for i in range(len(gamma)))
    words = tuple(tuple(sorted(by_count.get(base + i, []))) for i in range(len(gamma)))
    return GammaInterpretation(m, n, gamma, counts, stated, shift, matches, words)


class SweepRow(NamedTuple):
    mask: int
    polynomial: IntPolynomial
    degree: int
    palindromic: bool
    gamma: Optional[tuple[int, ...]]
    gamma_positive: bool
    unimodal: bool
    mode: str


class Certificate(NamedTuple):
    """Self-contained counterexample: the subposet, its polynomial and the
    coordinate that went negative."""

    spec: AmphibianSpec
    polynomial: IntPolynomial
    gamma: tuple[int, ...]
    violation: str

    def to_payload(self) -> dict:
        return {
            "spec": {
                "m": self.spec.m,
                "n": self.spec.n,
                "removed": [list(e) for e in self.spec.removed],
            },
            "poset": poset_to_json(self.spec.poset()),
            "polynomial": poly_to_payload(self.polynomial),
            "gamma": list(self.gamma),
            "violation": self.violation,
        }


class SweepReport(NamedTuple):
    m: int
    n: int
    rows: tuple[SweepRow, ...]
    violations: tuple[Certificate, ...]


def _sweep_row(args: tuple[int, int, int, list[tuple[int, ...]]]) -> SweepRow:
    m, n, mask, sigmas = args
    spec = AmphibianSpec(m, n, mask)
    poly = _row_sum(canon_rows(spec.poset(), tuple(range(1, m + 1)), sigmas))
    center = m * (n - 1)
    expansion = gamma_expansion(poly, center)
    return SweepRow(
        mask=mask,
        polynomial=poly,
        degree=poly.degree,
        palindromic=is_palindromic(poly, 0, center),
        gamma=None if expansion is None else expansion.gamma,
        gamma_positive=expansion is not None and expansion.gamma_positive,
        unimodal=is_unimodal(poly),
        mode=spec.mode(),
    )


def conjecture_sweep(m: int, n: int, jobs: int = 1, cap: Optional[int] = None) -> SweepReport:
    """Gamma data for every subset of removable inter-copy edges.

    Each subposet is named only by its edge mask (no isomorphism
    reduction); any gamma-negative one is reported as a counterexample
    certificate.
    """
    if m < 1 or n < 1:  # before the shift below
        raise ValueError("chain factor must have size >= 1")
    subposets = 1 << m * (n - 1)  # one per subset of removable edges
    sigmas = column_labelings(m, n, cap, subposets=subposets)
    tasks = [(m, n, mask, sigmas) for mask in range(subposets)]
    rows = tuple(parallel_map(_sweep_row, tasks, jobs))
    violations = []
    for row in rows:
        if row.gamma is None or not row.gamma_positive:
            spec = AmphibianSpec(m, n, row.mask)
            if row.gamma is None:
                violation = "not palindromic over the center window"
                gamma = ()
            else:
                idx = next(i for i, g in enumerate(row.gamma) if g < 0)
                violation = f"gamma-negative at index {idx}"
                gamma = row.gamma
            violations.append(Certificate(spec, row.polynomial, gamma, violation))
    return SweepReport(m, n, rows, tuple(violations))


def parallel_map(fn, items, jobs: int = 1):
    """Order-preserving map, fanned out over processes when jobs > 1.

    Results are combined in input order, so output is deterministic
    regardless of scheduling.  The pool may start all its workers at
    once, so it has at most one per item and per CPU, whatever ``jobs``.
    """
    items = list(items)
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(x) for x in items]
    # imported only here: loading it adds tens of ms to every interpreter start
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(items) // (workers * 4))
        return list(pool.map(fn, items, chunksize=chunk))
