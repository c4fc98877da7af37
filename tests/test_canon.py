import inspect
import random
from collections import Counter
from itertools import permutations
from math import factorial

import pytest

from conftest import poly_sum, removable_edges, vee_poset, wedge_poset

from canonlab import canon, cli, gamma, kernel, linext, polys, poset, sweep, verify
from canonlab.canon import (
    AmphibianSpec,
    _descent_classes,
    _row_sum,
    canon_polynomial_bruteforce,
    canon_polynomial_product,
    canon_rows,
    dissonant_polynomial,
    weak_descent_polynomial,
)
from canonlab.errors import CanonlabError, SizeCapError
from canonlab.gamma import gamma_class_words, gamma_interpretation
from canonlab.polys import IntPolynomial, eulerian, gamma_expansion, hstar, narayana
from canonlab.poset import (
    canon_labeling,
    chain,
    product_with_chain,
)
from canonlab.sweep import (
    _sweep_row,
    conjecture_sweep,
    dissonant_polynomials,
    parallel_map,
    subposet_masks,
)
from canonlab.verify import (
    MAX_LABELINGS,
    IdentityReport,
    _check_row_shift,
    _weak_descent_lanes,
    antichain,
    checked_product_identity,
    column_labelings,
    degree_witness_extension,
    descent_count,
    dissonant_degree_check,
    dissonant_palindromy_check,
    generalized_product_identity,
    mirrored,
)


def P(*coeffs):
    return IntPolynomial(tuple(coeffs))


def multiset_permutations(letters):
    """Distinct permutations of a multiset, as an independent oracle."""
    letters = sorted(letters)
    out = []

    def grow(remaining, acc):
        if not remaining:
            out.append(tuple(acc))
            return
        last = None
        for i, v in enumerate(remaining):
            if v == last:
                continue
            last = v
            grow(remaining[:i] + remaining[i + 1:], acc + [v])

    grow(letters, [])
    return out


class TestCanonPolynomial:
    def test_2x2(self):
        p = canon_polynomial_bruteforce(chain(2), (1, 2), 2)
        assert p == P(1, 2, 1)

    def test_3_columns_2(self):
        p = canon_polynomial_bruteforce(chain(3), (1, 2, 3), 2)
        assert p == P(1, 4, 4, 1)

    def test_single_row_is_eulerian(self):
        for n in range(1, 5):
            assert canon_polynomial_bruteforce(chain(1), (1,), n) == eulerian(n)

    def test_matches_oracle_enumeration(self):
        # definitional oracle: all canon words of the multiset, descents counted
        # directly, no poset machinery
        m, n = 2, 3
        total = {}
        for sig in permutations(range(1, n + 1)):
            for word in multiset_permutations([v for v in sig for _ in range(m)]):
                # keep only canon words whose copy pattern is sig
                occ = {}
                copies = [[] for _ in range(m)]
                for i, v in enumerate(word):
                    occ[v] = occ.get(v, 0) + 1
                    copies[occ[v] - 1].append(v)
                if all(tuple(c) == sig for c in copies):
                    d = descent_count(word)
                    total[d] = total.get(d, 0) + 1
        oracle = IntPolynomial(tuple(total.get(d, 0) for d in range(max(total) + 1)))
        assert canon_polynomial_bruteforce(chain(m), tuple(range(1, m + 1)), n) == oracle

    def test_product_form(self):
        assert canon_polynomial_product(chain(2), (1, 2), 3) == \
            eulerian(3) * narayana(3)
        assert canon_polynomial_product(chain(2), (1, 2), 2) == P(1, 2, 1)

    def test_product_form_reverse_shift(self):
        for m, n in [(2, 2), (2, 3), (3, 2)]:
            rev = canon_polynomial_product(chain(m), tuple(range(m, 0, -1)), n)
            nat = canon_polynomial_product(chain(m), tuple(range(1, m + 1)), n)
            assert rev == nat.shift(m - 1)

    def test_brute_equals_product_on_zoo(self):
        cases = [
            (chain(1), (1,)),
            (chain(2), (1, 2)),
            (chain(3), (1, 2, 3)),
            (vee_poset(), (1, 2, 3)),
            (vee_poset(), (3, 1, 2)),
            (wedge_poset(), (1, 2, 3)),
            (wedge_poset(), (2, 3, 1)),
        ]
        for p, w in cases:
            for n in (1, 2, 3):
                brute = canon_polynomial_bruteforce(p, w, n)
                prod = canon_polynomial_product(p, w, n)
                assert brute == prod, (p, w, n)

    def test_product_form_needs_constant_descents(self):
        with pytest.raises(CanonlabError, match="constant"):
            canon_polynomial_product(vee_poset(), (2, 1, 3), 2)

    def test_cap(self):
        # no |P|*n cap: (4,4) runs, and no function takes a cap
        assert canon_polynomial_bruteforce(chain(4), (1, 2, 3, 4), 4) == (
            canon_polynomial_product(chain(4), (1, 2, 3, 4), 4))
        assert not hasattr(canon, "PRODUCT_CAP")
        for module in (canon, cli, gamma, kernel, linext, polys, poset, sweep):
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                assert "cap" not in inspect.signature(fn).parameters, name

    def test_labeling_bound(self):
        # n! above MAX_LABELINGS is refused where sigma is listed, in
        # verify's oracles, before any labeling is built; a sum lists none,
        # and canon holds no labeling bound
        assert len(column_labelings(9)) == MAX_LABELINGS
        with pytest.raises(SizeCapError, match="10!"):
            column_labelings(10)
        assert canon_polynomial_bruteforce(chain(1), (1,), 10) == eulerian(10)
        assert not hasattr(canon, "MAX_LABELINGS") and not hasattr(canon, "column_labelings")
        for name, fn in inspect.getmembers(canon, inspect.isfunction):
            assert {"pprime", "subposets"}.isdisjoint(inspect.signature(fn).parameters), name

    def test_bound_counts_every_subposet(self):
        # a sweep is bounded by its 2^(m(n-1)) subposets alone, while
        # cor-4.1, which lists the n! labelings on each, is refused past 9!
        # of them over all subposets
        for m, n in ((2, 4), (2, 5), (3, 4), (4, 3), (5, 3), (2, 6), (1, 11)):
            assert subposet_masks(m, n) == range(1 << m * (n - 1))
        rows = conjecture_sweep(2, 6)
        assert len(rows) == 1024 and all(r.gamma_positive for r in rows)
        for m, n, what in ((2, 6, "1024 subposets x 6!"), (1, 9, "256 subposets x 9!"),
                           (1, 10, "10!")):
            with pytest.raises(SizeCapError, match=what):
                _check_row_shift(None, m, n)
        # more than 2^10 subposets, refused before the shift
        for m, n in ((11, 2), (17, 2), (10**6, 10**5)):
            with pytest.raises(SizeCapError, match="subposets exceed the bound 1024"):
                subposet_masks(m, n)


class TestColumnLabelings:
    def test_permutations_in_lexicographic_order(self):
        assert list(column_labelings(3)) == list(permutations((1, 2, 3)))

    def test_extensions_of_second_poset(self):
        # the words of P' are sized by e(P'): the kernel refuses the 9!
        # lanes of antichain(9) before any is listed, while the one word of
        # chain(10) runs
        assert pprime_words(chain(3)) == [(1, 2, 3)]
        assert pprime_words(antichain(3)) == list(column_labelings(3))
        with pytest.raises(SizeCapError, match="lanes x transitions x elements"):
            generalized_product_identity(chain(2), (1, 2), antichain(9))
        assert generalized_product_identity(chain(2), (1, 2), chain(10)).holds

    def test_rows_match_hstar(self):
        grid = product_with_chain(chain(2), 3)
        w = (2, 1)
        sigmas = column_labelings(3)
        rows = canon_rows(grid, w, sigmas)
        assert [IntPolynomial(tuple(r)) for r in rows] == [
            hstar(grid, canon_labeling(w, s)) for s in sigmas
        ]


def test_row_sum_weighs_each_row():
    # one running row against the column-wise weighted sum, rows of one
    # entry included; the rows and weights come as one-shot iterators
    rng = random.Random(20261019)
    for _ in range(200):
        width, count = rng.choice([1, 1, 2, 5, 9]), rng.randint(1, 6)
        rows = [[rng.randint(0, 10**20) for _ in range(width)] for _ in range(count)]
        weights = [rng.randint(0, 10**6) for _ in range(count)]
        columns = [sum(w * row[k] for w, row in zip(weights, rows)) for k in range(width)]
        assert _row_sum(iter(rows), iter(weights)) == IntPolynomial(columns)
        assert _row_sum(iter(rows)) == IntPolynomial(map(sum, zip(*rows)))
    assert _row_sum(iter(())) == IntPolynomial(())


def pprime_words(pprime):
    """The naturally labeled extension words of ``pprime``, listed."""
    nat = poset.natural_labeling(pprime)
    return [verify.word(ext, nat) for ext in linext.enumerate_linear_extensions(pprime)]


def every_sigma(p, w, n, mask=0, pprime=None):
    """The oracle for the class sum: one kernel lane per column labeling,
    or per extension word of ``pprime``."""
    q = product_with_chain(p, n, mask)
    sigmas = column_labelings(n) if pprime is None else pprime_words(pprime)
    return _row_sum(canon_rows(q, w, sigmas))


def descents_on(sigma, gaps):
    return tuple(sigma[j] > sigma[j + 1] for j in gaps)


def descent_classes(n, gaps):
    """The class walk's (sigma, size) pairs, in lane order."""
    sizes = []
    sigmas = list(_descent_classes(n, gaps, sizes))
    return list(zip(sigmas, sizes))


class TestDescentClasses:
    def test_every_mask_of_the_grids(self):
        for m, n in ((2, 3), (3, 2), (2, 4), (3, 3)):
            for w in (tuple(range(1, m + 1)), tuple(range(m, 0, -1))):
                for mask in range(1 << m * (n - 1)):
                    assert canon_polynomial_bruteforce(chain(m), w, n, mask=mask) == (
                        every_sigma(chain(m), w, n, mask)), (m, n, w, mask)

    def test_extension_words_of_a_second_poset(self):
        for pprime in (chain(3), antichain(3), vee_poset()):  # vee: the star on 3
            for w in ((1, 2), (2, 1)):
                report = generalized_product_identity(chain(2), w, pprime)
                assert report.holds and report.lhs == every_sigma(chain(2), w, 3, 0, pprime)

    def test_labeled_poset_with_falling_covers(self):
        # vee-k1 of the labeled-product cases: w falls on one cover only
        vee, w = vee_poset(), (3, 1, 2)
        for n in (1, 2, 3):
            for mask in range(1 << 3 * (n - 1)):
                assert canon_polynomial_bruteforce(vee, w, n, mask=mask) == (
                    every_sigma(vee, w, n, mask)), (n, mask)

    def test_dp_equals_grouped_permutations(self):
        # every gap set for n <= 7: the class sizes of the walk are the
        # sigmas grouped by their descents on the gaps, one class per pattern
        for n in range(1, 8):
            sigmas = list(permutations(range(1, n + 1)))
            for bits in range(1 << n - 1):
                gaps = [j for j in range(n - 1) if bits >> j & 1]
                listed = Counter(descents_on(s, gaps) for s in sigmas)
                classes = descent_classes(n, gaps)
                assert {descents_on(s, gaps): size for s, size in classes} == listed, (n, gaps)
                assert len(classes) == len(listed) == 1 << len(gaps)

    def test_sizes_and_representatives(self):
        for n, gaps in ((1, []), (6, [0, 2, 3]), (9, list(range(8))), (12, [1, 5, 6, 10])):
            classes = descent_classes(n, gaps)
            assert sum(size for _, size in classes) == factorial(n)
            assert len({descents_on(s, gaps) for s, _ in classes}) == 1 << len(gaps)
            for sigma, _ in classes:
                assert sorted(sigma) == list(range(1, n + 1))
                # the identity with each run of descents reversed
                falls = {j for j in range(n - 1) if sigma[j] > sigma[j + 1]}
                assert falls <= set(gaps)
                runs, start = [], 0
                for j in range(n):
                    if j not in falls:
                        runs += range(j + 1, start, -1)
                        start = j + 1
                assert tuple(runs) == sigma
        # lazily: each class's size is handed back as its sigma is yielded
        sizes = []
        for count, _ in enumerate(_descent_classes(6, [0, 2, 3], sizes), start=1):
            assert len(sizes) == count

    def test_walk_stops_after_the_last_kept_gap(self, monkeypatch):
        # the values after the last kept gap take any ranks, so the walk
        # takes one prefix-count step per node before that gap and none after
        steps = []
        real = canon.accumulate
        monkeypatch.setattr(canon, "accumulate", lambda f: steps.append(f) or real(f))
        assert descent_classes(6, []) == [((1, 2, 3, 4, 5, 6), 720)]
        assert steps == []
        assert descent_classes(6, [0, 1]) == [
            ((1, 2, 3, 4, 5, 6), 120), ((1, 3, 2, 4, 5, 6), 240),
            ((2, 1, 3, 4, 5, 6), 240), ((3, 2, 1, 4, 5, 6), 120)]
        assert len(steps) == 3
        # so an empty P's one class of n! sigmas costs no walk at the largest n
        assert canon_polynomial_bruteforce(poset.Poset(0, ()), (), poset.MAX_ELEMENTS) == (
            IntPolynomial((factorial(poset.MAX_ELEMENTS),)))

    def test_dp_work_bound(self, monkeypatch):
        # the kernel's work bound counts the 2^|gaps| lanes, so a sum past
        # it is refused before the class walk yields a single class
        yielded = []
        walk = canon._descent_classes

        def counted(*args):
            for sigma in walk(*args):
                yielded.append(sigma)
                yield sigma

        monkeypatch.setattr(canon, "_descent_classes", counted)
        for m, n in ((2, 17), (1, 18), (1, 40)):
            with pytest.raises(SizeCapError, match="lanes x transitions x elements"):
                canon_polynomial_bruteforce(chain(m), tuple(range(1, m + 1)), n)
        # an empty P gives the kernel no work, so n itself is bounded
        with pytest.raises(SizeCapError, match="exceeds the bound"):
            canon_polynomial_bruteforce(poset.Poset(0, ()), (), poset.MAX_ELEMENTS + 1)
        assert not yielded
        assert canon_polynomial_bruteforce(chain(2), (1, 2), 3) == eulerian(3) * hstar(
            product_with_chain(chain(2), 3))
        assert len(yielded) == 4

    @pytest.mark.parametrize("m, n", [(1, 10), (2, 10), (3, 7), (2, 13)])
    def test_sums_past_nine_factorial(self, m, n):
        # no sigma is listed, so a sum past 9! labelings runs
        w = tuple(range(1, m + 1))
        poly = canon_polynomial_bruteforce(chain(m), w, n)
        assert poly == canon_polynomial_product(chain(m), w, n)
        grid = product_with_chain(chain(m), n)
        assert sum(poly.coefficients) == factorial(n) * kernel.count_extensions(grid)


class TestCheckedProduct:
    def test_holds_on_grid(self):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                report = checked_product_identity(chain(m), tuple(range(1, m + 1)), n)
                assert report.holds, report.witness

    def test_values(self):
        r = checked_product_identity(chain(1), (1,), 2)
        assert r.lhs == P(1, 1)
        r = checked_product_identity(chain(3), (1, 2, 3), 2)
        assert r.lhs == P(1, 4, 4, 1)


class TestGeneralizedProduct:
    def test_antichain_reduces_to_product_formula(self):
        r = generalized_product_identity(chain(2), (1, 2), antichain(3))
        assert r.holds
        assert r.rhs == eulerian(3) * narayana(3)

    def test_chain_factor(self):
        r = generalized_product_identity(chain(2), (1, 2), chain(3))
        assert r.holds
        assert r.lhs == narayana(3)

    def test_vee_factor(self):
        r = generalized_product_identity(chain(2), (1, 2), vee_poset())
        assert r.holds

    def test_reverse_labeling(self):
        r = generalized_product_identity(chain(2), (2, 1), vee_poset())
        assert r.holds


class TestDissonant:
    def test_empty_removal_is_canon(self):
        spec = AmphibianSpec(2, 3, 0)
        assert dissonant_polynomial(spec, (1, 2)) == \
            canon_polynomial_bruteforce(chain(2), (1, 2), 3)

    def test_small_example(self):
        spec = AmphibianSpec.from_removed(2, 2, [(2, 1)])
        assert dissonant_polynomial(spec, (1, 2)) == P(1, 4, 1)

    def test_fixed_row_gives_multiset_permutations(self):
        # keeping one row chained realizes every multiset permutation once
        m, n = 2, 3
        spec = AmphibianSpec.from_removed(m, n, [(2, j) for j in range(1, n)])
        assert spec.mode() == "fixed-row"
        counts = {}
        for word in multiset_permutations([v for v in range(1, n + 1) for _ in range(m)]):
            d = descent_count(word)
            counts[d] = counts.get(d, 0) + 1
        oracle = IntPolynomial(tuple(counts.get(d, 0) for d in range(max(counts) + 1)))
        assert dissonant_polynomial(spec, tuple(range(1, m + 1))) == oracle

    def test_single_sigma_pair_counterexample(self):
        g = product_with_chain(chain(2), 3)
        idw = (1, 2)
        pair = poly_sum(hstar(g, canon_labeling(idw, (1, 2, 3))),
                        hstar(g, canon_labeling(idw, (3, 2, 1))))
        assert pair == P(1, 3, 2, 3, 1)
        gamma = gamma_expansion(pair, 4)
        assert gamma is not None and min(gamma) < 0

    def test_modes(self):
        assert AmphibianSpec(2, 3, 0).mode() == "canon"
        assert AmphibianSpec.from_removed(2, 3, [(1, 1)]).mode() == "fixed-row"
        assert AmphibianSpec.from_removed(2, 2, [(1, 1), (2, 1)]).mode() == "general"

    def test_mode_from_bits_follows_the_row_rule(self):
        for m, n in ((1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)):
            for mask in range(1 << len(removable_edges(m, n))):
                spec = AmphibianSpec(m, n, mask)
                touched = {row for row, _ in spec.removed}
                expected = ("canon" if not touched
                            else "general" if len(touched) == m else "fixed-row")
                assert spec.mode() == expected, (m, n, mask)

    def test_bad_edges(self):
        with pytest.raises(ValueError, match=r"\(row=3, j=1\) out of range"):
            AmphibianSpec.from_removed(2, 2, [(3, 1)])
        with pytest.raises(ValueError, match=r"\(row=1, j=2\) out of range"):
            AmphibianSpec.from_removed(2, 2, [(1, 2)])

    def test_from_removed_inverts_removed(self):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                edges = removable_edges(m, n)
                for mask in range(1 << len(edges)):
                    removed = tuple(e for i, e in enumerate(edges) if mask >> i & 1)
                    spec = AmphibianSpec(m, n, mask)
                    assert spec.removed == removed
                    assert AmphibianSpec.from_removed(m, n, removed) == spec
        assert AmphibianSpec(2, 3, 0b0110).removed == ((1, 2), (2, 1))


class TestDegreeLaw:
    def test_sweep(self):
        for m, n in [(2, 2), (2, 3), (3, 2)]:
            for w, k in [(tuple(range(1, m + 1)), 0), (tuple(range(m, 0, -1)), m - 1)]:
                edges = removable_edges(m, n)
                for mask in range(1 << len(edges)):
                    removed = [e for i, e in enumerate(edges) if mask >> i & 1]
                    spec = AmphibianSpec.from_removed(m, n, removed)
                    poly = dissonant_polynomial(spec, w)
                    report = dissonant_degree_check(spec, w, poly)
                    assert report.holds, report.witness
                    assert poly.degree == m * (n - 1) + k

    def test_witness_extension_always_valid(self):
        spec = AmphibianSpec.from_removed(3, 2, [(1, 1), (3, 1)])
        ext = degree_witness_extension(spec)
        from canonlab.verify import is_valid_extension

        assert is_valid_extension(spec.poset(), ext)


class TestPalindromyLaw:
    def test_sweep(self):
        for m, n in [(2, 2), (2, 3), (3, 2)]:
            for w in (tuple(range(1, m + 1)), tuple(range(m, 0, -1))):
                edges = removable_edges(m, n)
                for mask in range(1 << len(edges)):
                    removed = [e for i, e in enumerate(edges) if mask >> i & 1]
                    spec = AmphibianSpec.from_removed(m, n, removed)
                    report = dissonant_palindromy_check(spec, w, dissonant_polynomial(spec, w))
                    assert report.holds, report.name

    def test_reverse_window(self):
        # reversed rows at (2,2): window reaches m(n-1)+2k = 4
        spec = AmphibianSpec(2, 2, 0)
        report = dissonant_palindromy_check(spec, (2, 1), dissonant_polynomial(spec, (2, 1)))
        assert report.holds
        assert report.lhs.degree == 3


class TestReciprocity:
    def test_hstar_reversal_identity(self):
        # h* of (Q, w x sigma) mirrored in degree mn-1 equals the shifted
        # h* of (Q, w x phi(sigma)), phi(sigma) the complement n+1-sigma,
        # for every column count up to 3 and every amphibian subposet
        m = 2
        for n in (1, 2, 3):
            mn = m * n
            for w, k in [(tuple(range(1, m + 1)), 0), (tuple(range(m, 0, -1)), m - 1)]:
                kphi = (m - 1) - k
                edges = removable_edges(m, n)
                for mask in range(1 << len(edges)):
                    removed = [e for i, e in enumerate(edges) if mask >> i & 1]
                    q = AmphibianSpec.from_removed(m, n, removed).poset()
                    for sig in permutations(range(1, n + 1)):
                        lhs = mirrored(hstar(q, canon_labeling(w, sig)), mn - 1)
                        phi = tuple(n + 1 - v for v in sig)
                        rhs = hstar(q, canon_labeling(w, phi))
                        if kphi >= k:
                            rhs = rhs.shift(kphi - k)
                        else:
                            lhs = lhs.shift(k - kphi)
                        assert lhs == rhs, (w, n, mask, sig)


class TestShiftLaw:
    def test_column_relabel_shifts_hstar(self):
        # h* of the grid under (id x sigma) is x^des(sigma) times the
        # naturally labeled h*, for all m, n <= 3 and all sigma
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                grid = product_with_chain(chain(m), n)
                base = hstar(grid, canon_labeling(tuple(range(1, m + 1)), tuple(range(1, n + 1))))
                for sig in permutations(range(1, n + 1)):
                    des = sum(1 for a, b in zip(sig, sig[1:]) if a > b)
                    lhs = hstar(grid, canon_labeling(tuple(range(1, m + 1)), sig))
                    assert lhs == base.shift(des), (m, n, sig)


class TestWeakDescents:
    def test_2x2(self):
        assert weak_descent_polynomial(2, 2) == P(0, 1, 2, 1)

    def test_single_row(self):
        for n in (1, 2, 3, 4):
            assert weak_descent_polynomial(1, n) == eulerian(n)

    def test_shifted_canon(self):
        # the class route against the one-lane-per-sigma definition
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                canon = canon_polynomial_bruteforce(chain(m), tuple(range(1, m + 1)), n)
                weak = weak_descent_polynomial(m, n)
                assert weak == _weak_descent_lanes(m, n) == canon.shift(m - 1), (m, n)

    def test_two_rows_product_form(self):
        assert weak_descent_polynomial(2, 3) == (eulerian(3) * narayana(3)).shift(1)


GAMMA_CLASS_WORDS_3_3 = {
    0: {"112123233"},
    1: {
        "111223233", "112132233", "112231233", "112122333",
        "112233123", "123112233", "221213133", "331312122",
    },
    2: {
        "111222333", "123123123", "222113133", "221231133", "221132133",
        "221211333", "221133213", "213221133", "333112122", "331321122",
        "331123122", "331311222", "331122312", "312331122",
    },
    3: {"222111333", "333111222", "213213213", "312312312"},
}


class TestGammaInterpretation:
    def test_2x2(self):
        gi = gamma_interpretation(2, 2)
        assert gi.counts == (1, 0) and gi.matches and gi.shift == 1

    def test_3x2(self):
        gi = gamma_interpretation(3, 2)
        assert gi.counts == (1, 1)
        assert gi.matches and gi.shift == gi.stated_shift == 2
        assert gamma_class_words(gi) == (("112122",), ("111222",))

    def test_3x3_classes(self):
        gi = gamma_interpretation(3, 3)
        assert gi.gamma == (1, 8, 14, 4)
        assert gi.counts == (1, 8, 14, 4)
        assert gi.matches
        words = gamma_class_words(gi)
        for i, expected in GAMMA_CLASS_WORDS_3_3.items():
            assert set(words[i]) == expected, f"bucket {i}"
            assert list(words[i]) == sorted(expected), f"bucket {i}"

    def test_words_past_nine_columns(self):
        # from n = 10 on a word writes each letter in full, joined by ".",
        # and a class is sorted by its letters, not by its characters
        gi = gamma_interpretation(1, 10)
        words = gamma_class_words(gi)
        assert words[0] == ("1.2.3.4.5.6.7.8.9.10",)
        assert tuple(map(len, words)) == gi.counts
        for bucket in words:
            letters = [tuple(map(int, w.split("."))) for w in bucket]
            assert all(sorted(w) == list(range(1, 11)) for w in letters)
            assert letters == sorted(set(letters))
        assert gamma_class_words(gamma_interpretation(1, 1)) == (("1",),)

    def test_single_row_matches_eulerian_gamma(self):
        for n in range(1, 6):
            gi = gamma_interpretation(1, n)
            assert gi.matches
            assert gi.gamma == gamma_expansion(eulerian(n), n - 1)

    def test_counts_helper(self):
        assert gamma_interpretation(2, 3).counts == (1, 3, 2)

    def test_no_full_enumeration(self, monkeypatch):
        # the halves' counts replace enumerating every extension
        import canonlab.linext as linext_mod
        import canonlab.verify as verify_mod

        calls = []
        real = linext_mod.enumerate_linear_extensions

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(linext_mod, "enumerate_linear_extensions", counted)
        monkeypatch.setattr(verify_mod, "enumerate_linear_extensions", counted)
        assert gamma_interpretation(2, 4).counts == (1, 11, 24, 0)
        assert calls == []


class TestConjectureSweep:
    def test_2x3_all_positive(self):
        rows = conjecture_sweep(2, 3)
        assert len(rows) == 16
        assert all(r.gamma_positive and r.palindromic and r.unimodal for r in rows)

    def test_masks_cover_all_subsets(self):
        # one row per mask, in mask order
        assert [r.mask for r in conjecture_sweep(2, 2)] == list(range(4))

    def test_full_mask_recovers_multiset_row(self):
        # removing everything except one row's rails equals the multiset
        # descent polynomial (fixed-row rows agree with the oracle)
        rows = conjecture_sweep(2, 3)
        edges = removable_edges(2, 3)
        target_mask = sum(
            1 << i for i, (row, _) in enumerate(edges) if row == 2
        )
        row = rows[target_mask]
        counts = {}
        for word in multiset_permutations([1, 1, 2, 2, 3, 3]):
            d = descent_count(word)
            counts[d] = counts.get(d, 0) + 1
        oracle = IntPolynomial(tuple(counts.get(d, 0) for d in range(max(counts) + 1)))
        assert row.polynomial == oracle
        assert row.mode == "fixed-row"

    def test_each_row_is_its_own_masks(self):
        # a mask's row, built from its orbit's polynomial, equals the row
        # built from its own
        for m, n in ((2, 3), (3, 2), (2, 4), (3, 3), (4, 2)):
            natural = tuple(range(1, m + 1))
            specs = [AmphibianSpec(m, n, mask) for mask in range(1 << m * (n - 1))]
            assert conjecture_sweep(m, n) == tuple(
                _sweep_row(spec, dissonant_polynomial(spec, natural)) for spec in specs
            ), (m, n)

    def test_table_is_each_masks_own(self):
        # under either row labeling the per-orbit table equals one sum per
        # mask, at every grid with at most 2^6 subposets; given masks get
        # exactly their own entries
        for m in range(1, 7):
            for n in range(2, 6 // m + 2):
                masks = range(1 << m * (n - 1))
                for w in (tuple(range(1, m + 1)), tuple(range(m, 0, -1))):
                    assert dissonant_polynomials(m, n, w, masks) == {
                        mask: dissonant_polynomial(AmphibianSpec(m, n, mask), w)
                        for mask in masks
                    }, (m, n, w)
        every = dissonant_polynomials(2, 4, (2, 1), range(64))
        some = [5, 17, 40, 63]
        assert dissonant_polynomials(2, 4, (2, 1), some) == {mask: every[mask] for mask in some}

    def test_one_row_per_orbit(self, monkeypatch):
        computed = []
        real = sweep.dissonant_polynomial

        def counted(spec, w):
            computed.append(spec.mask)
            return real(spec, w)

        monkeypatch.setattr(sweep, "dissonant_polynomial", counted)
        for (m, n), orbits in (((2, 4), 28), ((2, 5), 88)):
            computed.clear()
            assert len(conjecture_sweep(m, n)) == 1 << m * (n - 1)
            assert len(computed) == orbits and computed == sorted(computed)

    def test_parallel_matches_serial(self):
        serial = conjecture_sweep(2, 3, jobs=1)
        parallel = conjecture_sweep(2, 3, jobs=4)
        assert serial == parallel

    def test_workers_bounded_by_items_and_cpus(self, monkeypatch):
        # a pool may fork all its workers at once: it gets at most one per
        # item and per CPU, whatever jobs asks for (the fake forks nothing)
        import concurrent.futures
        import os

        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert parallel_map(abs, [-1, -2, -3], jobs=10**9) == [1, 2, 3]
        assert parallel_map(abs, range(-9, 0), jobs=10**9) == list(range(9, 0, -1))
        assert parallel_map(abs, range(-9, 0), jobs=2) == list(range(9, 0, -1))
        assert started == [3, 4, 2]
        # one worker or one item: no pool at all
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert parallel_map(abs, [-1, -2], jobs=8) == [1, 2]
        assert parallel_map(abs, [-1], jobs=8) == [1]
        assert started == [3, 4, 2]

    def test_certificate_payload(self):
        # the CLI builds a certificate from (m, n, row), keys in this order
        spec = AmphibianSpec.from_removed(2, 2, [(1, 1)])
        row = _sweep_row(spec, P(1, -1, 1))
        assert row.gamma == (1, -3) and not row.gamma_positive
        payload = sweep._certificate(2, 2, row)
        assert list(payload) == ["spec", "poset", "polynomial", "gamma", "violation"]
        assert payload["violation"] == "gamma-negative at index 1"
        assert payload["spec"] == {"m": 2, "n": 2, "removed": [[1, 1]]}
        assert payload["poset"] == poset.poset_to_json(spec.poset())
        assert payload["polynomial"] == {"coeffs": ["1", "-1", "1"]}
        assert payload["gamma"] == [1, -3]
        # past the center window m(n-1) = 2: no gamma, so not palindromic
        row = _sweep_row(spec, P(1, 1, 0, 1))
        assert (row.palindromic, row.gamma, row.gamma_positive) == (False, None, False)
        payload = sweep._certificate(2, 2, row)
        assert payload["gamma"] == [] and payload["violation"] == (
            "not palindromic over the center window")


class TestIdentityReport:
    def test_compare_equal(self):
        r = IdentityReport.compare("x", P(1, 2), P(1, 2))
        assert r.holds and r.witness is None

    def test_compare_mismatch(self):
        r = IdentityReport.compare("x", P(1, 2), P(1, 3))
        assert not r.holds
        assert "x^1" in r.witness
