import inspect
import random
import re
from collections import Counter
from functools import partial
from itertools import permutations
from math import factorial

import pytest

from conftest import (
    MASK_GRIDS,
    SIGMA_GRIDS,
    canon_rows,
    column_labelings,
    poly_sum,
    random_poset,
    removable_edges,
    shift_law_per_sigma,
    string_mirror_orbit_key,
    vee_poset,
    weak_descent_lanes_per_sigma,
    wedge_poset,
    word_classes,
)

from canonlab import canon, cli, forms, gamma, kernel, linext, polys, poset, sweep, verify
from canonlab.canon import (
    AmphibianSpec,
    _descent_classes,
    _row_sum,
    _sigma_classes,
    canon_polynomial_bruteforce,
    class_rows,
    dissonant_polynomial,
)
from canonlab.errors import CanonlabError, SizeCapError
from canonlab.forms import (
    canon_polynomial_product,
    eulerian,
    gamma_expansion,
    narayana,
    weak_descent_polynomial,
)
from canonlab.gamma import gamma_class_words, gamma_interpretation
from canonlab.polys import IntPolynomial, hstar
from canonlab.poset import (
    canon_labeling,
    chain,
    product_with_chain,
)
from canonlab.sweep import (
    _orbit_key,
    _sweep_row,
    conjecture_sweep,
    orbit_table,
    parallel_map,
    subposet_masks,
)
from canonlab.verify import (
    IdentityReport,
    _check_row_shift,
    _check_shift_law,
    _orbit_walk,
    _weak_descent_lanes,
    antichain,
    checked_product_identity,
    degree_witness_extension,
    descent_count,
    descent_set,
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
        # no module lists sigma or bounds its n! labelings: the sums and the
        # checks alike run one lane per descent class, 2^9 of the 10! sigmas,
        # and the kernel's work bound alone refuses
        assert canon_polynomial_bruteforce(chain(1), (1,), 10) == eulerian(10)
        assert _weak_descent_lanes(1, 10) == eulerian(10)
        assert _check_shift_law(None, 1, 10)[0].holds
        for module in (canon, verify):
            for name in ("MAX_LABELINGS", "column_labelings", "permutations"):
                assert not hasattr(module, name), (module, name)
        for name, fn in inspect.getmembers(canon, inspect.isfunction):
            assert {"pprime", "subposets"}.isdisjoint(inspect.signature(fn).parameters), name

    def test_bound_counts_every_subposet(self):
        # every subposet check, cor-4.1 included, is bounded by its
        # 2^(m(n-1)) subposets and the kernel's work bound alone: none lists
        # sigma, so (1,10)'s 10! sigmas run and (2,7) is refused at once
        for m, n in ((2, 4), (2, 5), (3, 4), (4, 3), (5, 3), (2, 6), (1, 11)):
            assert subposet_masks(m, n) == range(1 << m * (n - 1))
        rows = conjecture_sweep(2, 6)
        assert len(rows) == 1024 and all(r.gamma_positive for r in rows)
        assert _check_row_shift(None, 1, 10)[0].holds
        for m, n, what in ((2, 7, "2^12"), (1, 12, "2^11")):
            with pytest.raises(SizeCapError, match=re.escape(f"{what} subposets exceed the bound")):
                _check_row_shift(None, m, n)
        # more than 2^10 subposets, refused before the shift
        for m, n in ((11, 2), (17, 2), (10**6, 10**5)):
            with pytest.raises(SizeCapError, match="subposets exceed the bound 1024"):
                subposet_masks(m, n)


class TestColumnLabelings:
    def test_permutations_in_lexicographic_order(self):
        # the oracles' listing, and the class walk's sigmas among them: one
        # per descent set, the identity first, whose row cor-3.4 shifts
        assert column_labelings(3) == [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1),
                                       (3, 1, 2), (3, 2, 1)]
        for n in range(1, 8):
            sigmas = [sigma for sigma, _ in _sigma_classes(1, n, 0)]
            assert set(sigmas) <= set(column_labelings(n)) and sigmas[0] == tuple(range(1, n + 1))
            assert len({descent_set(s) for s in sigmas}) == len(sigmas) == 1 << n - 1

    def test_extensions_of_second_poset(self):
        # the words of P' run one lane per descent class, not per word: the
        # 9! words of antichain(9) take 2^8 lanes, and the one word of
        # chain(10) one lane
        assert pprime_words(chain(3)) == [(1, 2, 3)]
        assert pprime_words(antichain(3)) == list(column_labelings(3))
        r = generalized_product_identity(chain(2), (1, 2), antichain(9))
        assert r.holds and r.rhs == eulerian(9) * narayana(9)
        assert generalized_product_identity(chain(2), (1, 2), chain(10)).holds

    def test_rows_match_hstar(self):
        # the one-lane-per-sigma oracle, and the class stream with two labels,
        # whose rows come in label order after each class's (sigma, size)
        grid = product_with_chain(chain(2), 3)
        w, ident = (2, 1), (1, 2)
        sigmas = column_labelings(3)
        rows = canon_rows(grid, w, sigmas)
        assert [IntPolynomial(tuple(r)) for r in rows] == [
            hstar(grid, canon_labeling(w, s)) for s in sigmas
        ]
        classes = list(class_rows(grid, _sigma_classes(2, 3, 0), partial(canon_labeling, w),
                                  partial(canon_labeling, ident)))
        assert [(s, size) for s, size, *_ in classes] == descent_classes(3, [0, 1])
        for s, _, a, b in classes:
            assert (P(*a), P(*b)) == (hstar(grid, canon_labeling(w, s)),
                                      hstar(grid, canon_labeling(ident, s))), s


def test_row_sum_weighs_each_row():
    # one running row per label against the column-wise sum of size x row,
    # rows of one entry and one label included; the (sigma, size, *rows)
    # classes come as one-shot iterators
    rng = random.Random(20261019)
    for _ in range(200):
        width, count = rng.choice([1, 1, 2, 5, 9]), rng.randint(1, 6)
        labels = rng.choice([1, 1, 2, 3])
        lanes = [[[rng.randint(0, 10**20) for _ in range(width)] for _ in range(labels)]
                 for _ in range(count)]
        sizes = [rng.randint(0, 10**6) for _ in range(count)]
        expected = []
        for label in range(labels):
            rows = [class_lanes[label] for class_lanes in lanes]
            columns = [sum(size * row[k] for size, row in zip(sizes, rows)) for k in range(width)]
            classes = [(None, size, row) for size, row in zip(sizes, rows)]
            assert _row_sum(iter(classes)) == (IntPolynomial(columns),)
            assert _row_sum((None, 1, row) for row in rows) == (IntPolynomial(map(sum, zip(*rows))),)
            expected.append(IntPolynomial(columns))
        classes = [(None, size, *class_lanes) for size, class_lanes in zip(sizes, lanes)]
        assert _row_sum(iter(classes)) == tuple(expected)
    # no class, no row to sum
    assert _row_sum(iter(())) == ()


def pprime_words(pprime):
    """The naturally labeled extension words of ``pprime``, listed."""
    nat = poset.natural_labeling(pprime)
    return [verify.word(ext, nat) for ext in linext.enumerate_linear_extensions(pprime)]


def every_sigma(p, w, n, mask=0, pprime=None):
    """The oracle for the class sum: one kernel lane per column labeling,
    or per extension word of ``pprime``."""
    q = product_with_chain(p, n, mask)
    sigmas = column_labelings(n) if pprime is None else pprime_words(pprime)
    return IntPolynomial([*map(sum, zip(*canon_rows(q, w, sigmas)))])


def descents_on(sigma, gaps):
    return tuple(sigma[j] > sigma[j + 1] for j in gaps)


def descent_classes(n, gaps):
    """The class walk's (sigma, size) pairs, in lane order."""
    return list(_descent_classes(n, gaps))


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

    def test_second_poset_classes_equal_its_words(self):
        # the class sum against one lane per extension word, on shuffled
        # random posets of up to 7 elements, and on two with two components,
        # for m = 1..3 under both row labelings; each class holds the words
        # with its descents, and the lanes are at most min(2^(n-1), e(P'))
        rng = random.Random(20261020)
        posets = [random_poset(rng, 7) for _ in range(24)]
        posets += [poset.Poset(5, ((0, 1), (2, 3), (3, 4))),
                   poset.Poset(6, ((4, 0), (4, 2), (5, 1), (3, 1)))]
        for pprime in posets:
            n, words = pprime.element_count, pprime_words(pprime)
            for m in (1, 2, 3):
                for w in {tuple(range(1, m + 1)), tuple(range(m, 0, -1))}:
                    report = generalized_product_identity(chain(m), w, pprime)
                    assert report.holds, (pprime, m, w)
                    assert report.lhs == every_sigma(chain(m), w, n, 0, pprime), (pprime, m, w)
            classes = word_classes(pprime)
            pairs = list(classes)
            gaps = range(n - 1)
            listed = Counter(descents_on(s, gaps) for s in words)
            assert {descents_on(s, gaps): size for s, size in pairs} == listed, pprime
            assert sum(size for _, size in pairs) == len(words) == kernel.count_extensions(pprime)
            assert len(pairs) == len(listed) <= len(classes) == min(1 << n - 1, len(words))

    def test_both_count_steps_walk_the_antichain_alike(self):
        # the permutations' rank step and the state graph's step of
        # antichain(n), whose words are the permutations: the same (sigma,
        # size) pairs in the same order
        for n in range(1, 10):
            assert list(word_classes(antichain(n))) == descent_classes(n, range(n - 1)), n

    def test_second_poset_walk_bound(self, monkeypatch):
        # the walk's work is sized from P''s graph before any class: the
        # 11-antichain runs, the 12-antichain and the 12-star are refused,
        # and a chain of any length walks its one class
        walked = []
        monkeypatch.setattr(verify, "_descent_classes", lambda *args: walked.append(1))
        for pprime in (antichain(12), verify._star(12)):
            with pytest.raises(SizeCapError, match="classes x transitions x elements"):
                word_classes(pprime)
        assert walked == []
        monkeypatch.undo()
        assert len(word_classes(antichain(11))) == 1 << 10
        assert list(word_classes(chain(40))) == [(tuple(range(1, 41)), 1)]

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
        # lazily, one pair at a time: each sigma comes with the number of
        # words that share its descents on the gaps
        walk = _descent_classes(6, [0, 2, 3])
        assert inspect.isgenerator(walk)
        words = Counter(descents_on(s, [0, 2, 3]) for s in permutations(range(1, 7)))
        for sigma, size in walk:
            assert size == words[descents_on(sigma, [0, 2, 3])], sigma

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

    def test_second_poset_graph_built_once(self, monkeypatch):
        # P''s state graph serves the class walk and h*(P')'s one lane
        built = []
        real = kernel._transitions
        monkeypatch.setattr(kernel, "_transitions", lambda *a: built.append(a[0]) or real(*a))
        for pprime in (antichain(5), chain(5), verify._star(5), vee_poset()):
            built.clear()
            assert generalized_product_identity(chain(2), (1, 2), pprime).holds
            assert built.count(pprime) == 1, pprime


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
        for m, n in MASK_GRIDS:
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
        masks = 0
        for m, n in MASK_GRIDS:
            edges = removable_edges(m, n)
            for mask in range(1 << len(edges)):
                removed = tuple(e for i, e in enumerate(edges) if mask >> i & 1)
                spec = AmphibianSpec(m, n, mask)
                assert spec.removed == removed
                assert AmphibianSpec.from_removed(m, n, removed) == spec
                masks += 1
        assert masks == 7316
        assert AmphibianSpec(2, 3, 0b0110).removed == ((1, 2), (2, 1))

    @pytest.mark.parametrize("m, n, mask, message", [
        (2, 3, -1, "mask -1 is outside [0, 2^4)"),
        (2, 3, 1 << 4, "mask 16 is outside [0, 2^4)"),
        (2, 3, 1 << 10, "mask 1024 is outside [0, 2^4)"),
        (3, 4, -1, "mask -1 is outside [0, 2^9)"),
        (3, 4, 1 << 9, "mask 512 is outside [0, 2^9)"),
        (2, 1, 5, "mask 5 is outside [0, 2^0)"),
        (2, 0, 0, "chain factor must have size >= 1"),
    ])
    def test_every_mask_reader_refuses_a_mask_the_grid_lacks(self, m, n, mask, message):
        # poset._gap_bits checks the range for every reader of a mask
        spec = AmphibianSpec(m, n, mask)
        readers = {"removed": lambda: spec.removed, "mode": spec.mode, "poset": spec.poset,
                   "_sigma_classes": lambda: _sigma_classes(m, n, mask),
                   "_orbit_key": lambda: _orbit_key(m, n, mask)}
        for name, read in readers.items():
            with pytest.raises(ValueError) as info:
                read()
            assert str(info.value) == message, name

    @pytest.mark.parametrize("m", [0, -1])
    def test_every_spec_reader_refuses_a_chain_below_one(self, m):
        # poset._check_chain holds m >= 1 for removed, and mode through it,
        # as chain does for poset
        spec = AmphibianSpec(m, 3, 0)
        for name, read in {"removed": lambda: spec.removed, "mode": spec.mode,
                           "poset": spec.poset}.items():
            with pytest.raises(ValueError) as info:
                read()
            assert str(info.value) == "chain size must be >= 1", name

    def test_orbit_key_groups_as_the_string_mirror(self):
        # the gap-by-gap mirror groups every mask of every grid up to 2^10
        # subposets exactly as reversing the mask's bit string did
        for m, n in MASK_GRIDS:
            groups, oracle = {}, {}
            for mask in range(1 << m * (n - 1)):
                groups.setdefault(_orbit_key(m, n, mask), []).append(mask)
                oracle.setdefault(string_mirror_orbit_key(m, n, mask), []).append(mask)
            assert sorted(groups.values()) == sorted(oracle.values()), (m, n)


# each library call that takes a labeling, with one of the wrong length,
# and the (labels, elements) its refusal names
WRONG_LENGTH_LABELINGS = {
    "hstar-long": (lambda: hstar(product_with_chain(chain(2), 2), (1, 2, 3, 4, 5)), (5, 4)),
    "hstar-short": (lambda: hstar(chain(3), (1, 2)), (2, 3)),
    "bruteforce": (lambda: canon_polynomial_bruteforce(chain(2), (3, 1, 2), 2), (3, 2)),
    "product": (lambda: canon_polynomial_product(chain(2), (3, 1, 2), 2), (3, 2)),
    "dissonant": (lambda: dissonant_polynomial(AmphibianSpec(2, 3, 1), (1,)), (1, 2)),
    "chain-descents": (lambda: forms.chain_descents(chain(2), (1,)), (1, 2)),
    "checked-product": (lambda: verify.checked_product_identity(chain(2), (1,), 2), (1, 2)),
    "generalized-product": (
        lambda: verify.generalized_product_identity(chain(2), (1, 2, 3), chain(2)), (3, 2)),
}


@pytest.mark.parametrize("name", WRONG_LENGTH_LABELINGS)
def test_a_labeling_of_the_wrong_length_is_refused(monkeypatch, name):
    # one ValueError, before any kernel call, where a polynomial or an
    # IndexError came back
    def no_kernel(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(kernel, "descent_histograms", no_kernel)
    monkeypatch.setattr(kernel, "_transitions", no_kernel)
    call, (labels, elements) = WRONG_LENGTH_LABELINGS[name]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == (f"a labeling of length {labels} does not fit "
                               f"a poset of {elements} elements")


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
    @pytest.mark.parametrize("m, n", SIGMA_GRIDS)
    def test_class_route_matches_every_sigma(self, m, n):
        assert _check_shift_law(None, m, n) == shift_law_per_sigma(m, n)

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


def row_shift_every_sigma(m: int, n: int) -> list[IdentityReport]:
    """cor-4.1 by its definition, the oracle for the per-orbit route: every
    sigma's row under the reversed and the natural w on every subposet,
    two kernel calls of n! lanes per mask, the full mask first, stopping
    at the first (mask, sigma) whose rows differ by other than x^(m-1)."""
    sigmas = column_labelings(n)
    w, ident = tuple(range(m, 0, -1)), tuple(range(1, m + 1))
    detail = None
    for mask in reversed(subposet_masks(m, n)):
        q = AmphibianSpec(m, n, mask).poset()
        pairs = zip(canon_rows(q, w, sigmas), canon_rows(q, ident, sigmas), sigmas)
        bad = next((s for a, b, s in pairs if P(*a) != P(*b).shift(m - 1)), None)
        if bad is not None:
            detail = f"mask={mask} sigma={bad}"
            break
    return [IdentityReport(f"row-shift m={m} n={n}", detail is None, witness=detail)]


def no_walk(m: int, n: int, first: int) -> None:
    """An orbit walk that walks nothing: the table's mask to first map alone."""


class TestRowShift:
    @pytest.mark.parametrize("m, n", [(2, 2), (3, 2), (2, 3), (2, 4), (3, 3), (4, 2), (1, 5)])
    def test_per_orbit_route_matches_every_sigma(self, m, n):
        assert _check_row_shift(None, m, n) == row_shift_every_sigma(m, n)

    @pytest.mark.parametrize("m, n", [(2, 4), (3, 3), (1, 6), (4, 3)])
    def test_class_sigmas_on_orbit_firsts_are_exact(self, m, n):
        # the (reversed row, natural row) pairs of every mask over all n!
        # sigma are those of the class sigmas on its orbit's first mask
        w, ident = tuple(range(m, 0, -1)), tuple(range(1, m + 1))

        def pairs(mask, sigmas):
            q = AmphibianSpec(m, n, mask).poset()
            return set(zip(map(tuple, canon_rows(q, w, sigmas)),
                           map(tuple, canon_rows(q, ident, sigmas))))

        sigmas = column_labelings(n)
        for mask, first in orbit_table(m, n, subposet_masks(m, n), no_walk)[0].items():
            firsts = [sigma for sigma, _ in _sigma_classes(m, n, first)]
            assert pairs(mask, sigmas) == pairs(first, firsts), mask


class TestWeakDescents:
    def test_2x2(self):
        assert weak_descent_polynomial(2, 2) == P(0, 1, 2, 1)

    def test_single_row(self):
        for n in (1, 2, 3, 4):
            assert weak_descent_polynomial(1, n) == eulerian(n)

    def test_shifted_canon(self):
        # both class routes, the reversed rows and the negated letters,
        # against the one-lane-per-sigma definition
        for m, n in SIGMA_GRIDS:
            canon = canon_polynomial_bruteforce(chain(m), tuple(range(1, m + 1)), n)
            weak = weak_descent_polynomial(m, n)
            assert weak == _weak_descent_lanes(m, n) == canon.shift(m - 1), (m, n)
            assert weak == weak_descent_lanes_per_sigma(m, n), (m, n)

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
        # the orbit table of verify's walk gives each mask the sums of its
        # own spec under the reversed and the natural rows, at every grid
        # with at most 2^6 subposets; given masks get exactly their own entries
        def table(m, n, masks):
            firsts, walks = orbit_table(m, n, masks, _orbit_walk)
            return {mask: walks[first][:2] for mask, first in firsts.items()}

        for m in range(1, 7):
            for n in range(2, 6 // m + 2):
                masks = range(1 << m * (n - 1))
                labelings = (tuple(range(m, 0, -1)), tuple(range(1, m + 1)))
                assert table(m, n, masks) == {
                    mask: tuple(dissonant_polynomial(AmphibianSpec(m, n, mask), w)
                                for w in labelings)
                    for mask in masks
                }, (m, n)
        every = table(2, 4, range(64))
        some = [5, 17, 40, 63]
        assert table(2, 4, some) == {mask: every[mask] for mask in some}

    def test_one_row_per_orbit(self, monkeypatch):
        computed = []
        real = sweep.dissonant_polynomial

        def counted(spec, w):
            computed.append(spec.mask)
            return real(spec, w)

        monkeypatch.setattr(sweep, "dissonant_polynomial", counted)
        # one sum per orbit, the full mask's first, each orbit's first mask
        # in descending order
        for (m, n), orbits in (((2, 4), 28), ((2, 5), 88), ((3, 4), 234), ((2, 6), 289)):
            computed.clear()
            assert len(conjecture_sweep(m, n)) == 1 << m * (n - 1)
            assert len(computed) == orbits and computed == sorted(computed, reverse=True)
            assert computed[0] == (1 << m * (n - 1)) - 1

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
