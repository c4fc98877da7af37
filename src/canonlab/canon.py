"""Canon, dissonant and weak-descent polynomials, and the identity checks.

The brute-force definitional computations here are the source of truth;
the closed forms (product formulas, degree and palindromicity laws,
gamma interpretations) are the things under test.  Sums over all column
permutations share one kernel call on one state graph, and both the
permutation sums and the edge-subset sweeps parallelize by fanning out
over independent tasks whose results combine commutatively.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import permutations
from typing import Optional

from canonlab.config import product_cap
from canonlab.errors import CanonlabError, SizeCapError
from canonlab.linext import (
    LinearExtension,
    _rho_drops,
    descent_count,
    enumerate_linear_extensions,
    is_valid_extension,
    multiset_word,
    weak_descent_count,
    word,
)
from canonlab.polys import (
    IntPolynomial,
    eulerian,
    gamma_expansion,
    hstar,
    hstar_sum,
    is_palindromic,
    is_unimodal,
    poly_to_payload,
)
from canonlab.poset import (
    Labeling,
    Poset,
    canon_labeling,
    chain,
    chain_descent_profile,
    checked_labeling,
    checked_product,
    natural_labeling,
    poset_to_json,
    product_with_chain,
    remove_intercopy_covers,
    rho_parities,
)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one polynomial identity, self-diagnosing on failure."""

    name: str
    lhs: IntPolynomial
    rhs: IntPolynomial
    holds: bool
    witness: Optional[str] = None

    @classmethod
    def compare(cls, name: str, lhs: IntPolynomial, rhs: IntPolynomial) -> "IdentityReport":
        if lhs == rhs:
            return cls(name, lhs, rhs, True)
        top = max(lhs.degree, rhs.degree)
        mismatch = next(
            k for k in range(top + 1) if lhs.coefficient(k) != rhs.coefficient(k)
        )
        witness = (
            f"coefficient of x^{mismatch}: {lhs.coefficient(mismatch)} != "
            f"{rhs.coefficient(mismatch)}"
        )
        return cls(name, lhs, rhs, False, witness)


@dataclass(frozen=True)
class AmphibianSpec:
    """A chain product with a chosen set of inter-copy covers removed.

    ``removed`` holds 1-based pairs ``(row, j)`` naming the covers
    ``(row, j) < (row, j+1)``; intra-copy covers always stay.
    """

    m: int
    n: int
    removed: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be >= 1")
        if not isinstance(self.removed, frozenset):
            object.__setattr__(self, "removed", frozenset(tuple(e) for e in self.removed))
        for row, j in self.removed:
            if not (1 <= row <= self.m and 1 <= j <= self.n - 1):
                raise ValueError(f"removable edge (row={row}, j={j}) out of range")

    def poset(self) -> Poset:
        grid = product_with_chain(chain(self.m), self.n)
        return remove_intercopy_covers(grid, self.m, self.removed)

    def mode(self) -> str:
        """How the removals relate to the multiset-permutation picture:
        'canon' keeps everything, 'fixed-row' leaves at least one row
        untouched (its copies stay chained, fixing one subsequence), and
        'general' touches every row."""
        if not self.removed:
            return "canon"
        touched = {row for row, _ in self.removed}
        if len(touched) < self.m:
            return "fixed-row"
        return "general"

    def edge_mask(self) -> int:
        """Bitmask over removable edges (row, j) in row-major order."""
        edges = removable_edges(self.m, self.n)
        return sum(1 << edges.index(e) for e in self.removed)


def removable_edges(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """Inter-copy covers of the m x n grid, row-major (1-based)."""
    return tuple((row, j) for row in range(1, m + 1) for j in range(1, n))


def _all_sigma(n: int) -> list[Labeling]:
    return [Labeling(p) for p in permutations(range(1, n + 1))]


def _check_product_cap(size: int, n: int, cap: Optional[int]) -> None:
    limit = product_cap(cap)
    if size * n > limit:
        raise SizeCapError(
            f"|P|*n = {size * n} exceeds the brute-force cap {limit} "
            "(raise it with CANONLAB_CAP or an explicit cap override)"
        )


def canon_polynomial_bruteforce(
    p: Poset, w: Labeling, n: int, cap: Optional[int] = None
) -> IntPolynomial:
    """Descent polynomial of all canon permutations of (p, w): the sum of
    the descent polynomials of p x [n] over every column labeling."""
    _check_product_cap(p.element_count, n, cap)
    prod = product_with_chain(p, n)
    labelings = [canon_labeling(w, sigma) for sigma in _all_sigma(n)]
    return hstar_sum(prod, labelings)


def canon_polynomial_product(p: Poset, w: Labeling, n: int, cap: Optional[int] = None) -> IntPolynomial:
    """Closed product form: x^k * A_n * h* of the naturally labeled product.

    Requires every maximal chain of (p, w) to carry the same number k of
    descents.
    """
    profile = chain_descent_profile(p, w)
    if profile.constant_k is None:
        raise CanonlabError(
            "product form needs a labeling with constant chain descents"
        )
    prod = product_with_chain(p, n)
    base = hstar(prod, canon_labeling(natural_labeling(p), Labeling.natural(n)), cap=cap)
    return (eulerian(n) * base).shift(profile.constant_k)


def checked_product_identity(p: Poset, w: Labeling, n: int, cap: Optional[int] = None) -> IdentityReport:
    """Brute-force canon polynomial vs the descent polynomial of the
    checked product under the checked labeling."""
    lhs = canon_polynomial_bruteforce(p, w, n, cap=cap)
    rhs = hstar(checked_product(p, n), checked_labeling(w, n))
    return IdentityReport.compare(f"checked-product m={p.element_count} n={n}", lhs, rhs)


def generalized_product_identity(
    p: Poset, w: Labeling, pprime: Poset, cap: Optional[int] = None
) -> IdentityReport:
    """Sum of product descent polynomials over the extensions of a second
    poset vs the factored form x^k * h*(P') * h*(P x [n])."""
    profile = chain_descent_profile(p, w)
    if profile.constant_k is None:
        raise CanonlabError("factored form needs constant chain descents")
    n = pprime.element_count
    _check_product_cap(p.element_count, n, cap)
    nat_prime = natural_labeling(pprime)
    sigmas = [Labeling(word(ext, nat_prime)) for ext in enumerate_linear_extensions(pprime)]
    prod = product_with_chain(p, n)
    lhs = hstar_sum(prod, [canon_labeling(w, sigma) for sigma in sigmas])
    base = hstar(prod, canon_labeling(natural_labeling(p), Labeling.natural(n)))
    rhs = (hstar(pprime) * base).shift(profile.constant_k)
    return IdentityReport.compare(
        f"generalized-product m={p.element_count} |P'|={n}", lhs, rhs
    )


def dissonant_polynomial(spec: AmphibianSpec, w: Labeling, cap: Optional[int] = None) -> IntPolynomial:
    """Descent polynomial of the subposet's labeled extensions, summed
    over every column labeling."""
    _check_product_cap(spec.m, spec.n, cap)
    q = spec.poset()
    labelings = [canon_labeling(w, sigma) for sigma in _all_sigma(spec.n)]
    return hstar_sum(q, labelings)


def _chain_descents(w: Labeling) -> int:
    """Descents of a chain labeling read bottom to top."""
    return sum(1 for a, b in zip(w.values, w.values[1:]) if a > b)


def degree_witness_extension(spec: AmphibianSpec) -> LinearExtension:
    """The row-block extension: each row's copies in copy order, rows in
    chain order.  Valid in every amphibian subposet."""
    m, n = spec.m, spec.n
    order = tuple(row + j * m for row in range(m) for j in range(n))
    return LinearExtension(order)


def dissonant_degree_check(spec: AmphibianSpec, w: Labeling, cap: Optional[int] = None) -> IdentityReport:
    """Assert deg C = m(n-1) + k, carrying the row-block witness word."""
    k = _chain_descents(w)
    poly = dissonant_polynomial(spec, w, cap=cap)
    expected = spec.m * (spec.n - 1) + k
    witness_ext = degree_witness_extension(spec)
    rev = Labeling.reverse_natural(spec.n)
    q = spec.poset()
    valid = is_valid_extension(q, witness_ext.order)
    wdes = descent_count(word(witness_ext, canon_labeling(w, rev)))
    report = IdentityReport.compare(
        f"dissonant-degree m={spec.m} n={spec.n} mask={spec.edge_mask()} mode={spec.mode()}",
        IntPolynomial.x_power(max(poly.degree, 0)),
        IntPolynomial.x_power(expected),
    )
    witness = (
        f"degree {poly.degree} vs m(n-1)+k = {expected}; row-block witness "
        f"{'valid' if valid else 'INVALID'} with {wdes} descents under the reversed columns"
    )
    return IdentityReport(report.name, report.lhs, report.rhs, report.holds and valid, witness)


def dissonant_palindromy_check(spec: AmphibianSpec, w: Labeling, cap: Optional[int] = None) -> IdentityReport:
    """Palindromicity of the dissonant polynomial over [0, m(n-1)+2k]."""
    k = _chain_descents(w)
    poly = dissonant_polynomial(spec, w, cap=cap)
    top = spec.m * (spec.n - 1) + 2 * k
    holds = is_palindromic(poly, 0, top)
    rhs = poly.mirrored(0, top) if poly.degree <= top else poly
    witness = None if holds else f"not symmetric over [0, {top}]"
    return IdentityReport(
        f"dissonant-palindromy m={spec.m} n={spec.n} mask={spec.edge_mask()} mode={spec.mode()}",
        poly,
        rhs,
        holds,
        witness,
    )


def weak_descent_polynomial(m: int, n: int, cap: Optional[int] = None) -> IntPolynomial:
    """Weak-descent polynomial of canon permutations, computed two ways.

    Route one enumerates weak descents of the canon words directly; route
    two reuses the canon polynomial under the reversed row labeling.  A
    mismatch signals a bug, not a mathematical discovery.
    """
    _check_product_cap(m, n, cap)
    grid = product_with_chain(chain(m), n)
    ident = Labeling.natural(m)
    counts: dict[int, int] = {}
    extensions = list(enumerate_linear_extensions(grid))
    for sigma in _all_sigma(n):
        lab = canon_labeling(ident, sigma)
        for ext in extensions:
            wd = weak_descent_count(multiset_word(ext, lab, m))
            counts[wd] = counts.get(wd, 0) + 1
    direct = IntPolynomial(
        tuple(counts.get(d, 0) for d in range(max(counts, default=0) + 1))
    )
    via_reverse = canon_polynomial_bruteforce(chain(m), Labeling.reverse_natural(m), n, cap=cap)
    if direct != via_reverse:
        raise CanonlabError(
            "weak-descent routes disagree: "
            f"{direct.coefficients} vs {via_reverse.coefficients}"
        )
    return direct


def canon_word_of_checked_extension(m: int, n: int, ext: LinearExtension) -> tuple[int, ...]:
    """Translate an extension of the checked product into a canon
    permutation: the top elements, read in order, give the column
    permutation, and each product element contributes that column value."""
    mn = m * n
    order = ext.order
    sigma = tuple(v - mn + 1 for v in order[mn:])
    return tuple(sigma[v // m] for v in order[:mn])


@dataclass(frozen=True)
class GammaInterpretation:
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
    representatives: tuple[tuple[tuple[int, ...], ...], ...]
    words: tuple[tuple[tuple[int, ...], ...], ...]


def gamma_interpretation(m: int, n: int, cap: Optional[int] = None) -> GammaInterpretation:
    """Count checked-product extensions with i+d rho-descents, no double
    rho-descents and an increasing final pair when both parities are odd,
    and compare the counts against the gamma vector of the canon
    polynomial."""
    poly = canon_polynomial_bruteforce(chain(m), Labeling.natural(m), n, cap=cap)
    center = m * (n - 1)
    expansion = gamma_expansion(poly, center)
    if expansion is None:
        raise CanonlabError("canon polynomial is not palindromic over its center")
    gamma = expansion.gamma
    pcheck = checked_product(chain(m), n)
    parities = rho_parities(pcheck)
    by_count: dict[int, list[LinearExtension]] = {}
    for ext in enumerate_linear_extensions(pcheck):
        drops, doubles = _rho_drops(parities, ext.order)
        if doubles:
            continue
        last, prev = ext.order[-1], ext.order[-2]
        if parities[prev] == parities[last] == 1 and prev > last:
            continue
        by_count.setdefault(len(drops), []).append(ext)

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
    reps = tuple(
        tuple(sorted(tuple(v + 1 for v in ext.order) for ext in by_count.get(base + i, [])))
        for i in range(len(gamma))
    )
    words = tuple(
        tuple(
            sorted(
                canon_word_of_checked_extension(m, n, ext)
                for ext in by_count.get(base + i, [])
            )
        )
        for i in range(len(gamma))
    )
    return GammaInterpretation(m, n, gamma, counts, stated, shift, matches, reps, words)


def gamma_interpretation_counts(m: int, n: int, cap: Optional[int] = None) -> tuple[int, ...]:
    return gamma_interpretation(m, n, cap=cap).counts


@dataclass(frozen=True)
class SweepRow:
    mask: int
    removed: tuple[tuple[int, int], ...]
    polynomial: IntPolynomial
    degree: int
    palindromic: bool
    gamma: Optional[tuple[int, ...]]
    gamma_positive: bool
    unimodal: bool
    mode: str


@dataclass(frozen=True)
class Certificate:
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
                "removed": sorted(list(e) for e in self.spec.removed),
            },
            "poset": poset_to_json(self.spec.poset()),
            "polynomial": poly_to_payload(self.polynomial),
            "gamma": list(self.gamma),
            "violation": self.violation,
        }


@dataclass(frozen=True)
class SweepReport:
    m: int
    n: int
    rows: tuple[SweepRow, ...]
    violations: tuple[Certificate, ...]


def _sweep_row(args: tuple[int, int, int, Optional[int]]) -> SweepRow:
    m, n, mask, cap = args
    edges = removable_edges(m, n)
    removed = frozenset(e for i, e in enumerate(edges) if mask >> i & 1)
    spec = AmphibianSpec(m, n, removed)
    poly = dissonant_polynomial(spec, Labeling.natural(m), cap=cap)
    center = m * (n - 1)
    expansion = gamma_expansion(poly, center)
    return SweepRow(
        mask=mask,
        removed=tuple(sorted(removed)),
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

    Subsets are canonicalized only by their removed-edge set (no
    isomorphism reduction); any gamma-negative subset is reported as a
    counterexample certificate.
    """
    _check_product_cap(m, n, cap)
    edges = removable_edges(m, n)
    tasks = [(m, n, mask, cap) for mask in range(1 << len(edges))]
    rows = tuple(parallel_map(_sweep_row, tasks, jobs))
    violations = []
    for row in rows:
        if row.gamma is None or not row.gamma_positive:
            spec = AmphibianSpec(m, n, frozenset(row.removed))
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
    regardless of scheduling.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunk = max(1, len(items) // (jobs * 4))
        return list(pool.map(fn, items, chunksize=chunk))
