from itertools import permutations

import pytest

from conftest import vee_poset, wedge_poset

from canonlab.canon import (
    MAX_LABELINGS,
    AmphibianSpec,
    Certificate,
    IdentityReport,
    canon_polynomial_bruteforce,
    canon_polynomial_product,
    canon_rows,
    checked_product_identity,
    column_labelings,
    conjecture_sweep,
    degree_witness_extension,
    dissonant_degree_check,
    dissonant_palindromy_check,
    dissonant_polynomial,
    gamma_interpretation,
    generalized_product_identity,
    removable_edges,
    weak_descent_polynomial,
)
from canonlab.errors import CanonlabError, SizeCapError
from canonlab.linext import descent_count
from canonlab.polys import IntPolynomial, eulerian, gamma_expansion, hstar, narayana
from canonlab.poset import (
    antichain,
    canon_labeling,
    chain,
    product_with_chain,
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
        with pytest.raises(SizeCapError):
            canon_polynomial_bruteforce(chain(4), (1, 2, 3, 4), 4)
        # explicit override lifts it
        canon_polynomial_bruteforce(chain(2), (1, 2), 2, cap=20)

    def test_labeling_bound(self):
        # n! above MAX_LABELINGS is refused whatever the cap, before any
        # labeling is built
        assert len(column_labelings(1, 9)) == MAX_LABELINGS
        with pytest.raises(SizeCapError, match="10!"):
            column_labelings(1, 10, cap=10**9)
        with pytest.raises(SizeCapError, match="10!"):
            canon_polynomial_bruteforce(chain(1), (1,), 10, cap=10**9)

    def test_bound_counts_every_subposet(self):
        # a sweep sums over 2^(m(n-1)) subposets, each under n! labelings
        for m, n in ((2, 4), (2, 5), (3, 4), (4, 3)):
            subposets = 1 << m * (n - 1)
            assert len(column_labelings(m, n, subposets=subposets)) == len(
                column_labelings(m, n)
            )
        with pytest.raises(SizeCapError, match="1024 subposets x 6!"):
            column_labelings(2, 6, subposets=1 << 10)
        with pytest.raises(SizeCapError, match="1024 subposets x 6!"):
            conjecture_sweep(2, 6)


class TestColumnLabelings:
    def test_permutations_in_lexicographic_order(self):
        assert column_labelings(2, 3) == list(permutations((1, 2, 3)))

    def test_extensions_of_second_poset(self):
        assert column_labelings(2, 3, pprime=chain(3)) == [(1, 2, 3)]
        assert column_labelings(2, 3, pprime=antichain(3)) == column_labelings(2, 3)
        with pytest.raises(SizeCapError):
            column_labelings(5, 3, pprime=chain(3))

    def test_rows_match_hstar(self):
        grid = product_with_chain(chain(2), 3)
        w = (2, 1)
        sigmas = column_labelings(2, 3)
        rows = canon_rows(grid, w, sigmas)
        assert [IntPolynomial(tuple(r)) for r in rows] == [
            hstar(grid, canon_labeling(w, s)) for s in sigmas
        ]


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
        spec = AmphibianSpec(2, 3, frozenset())
        assert dissonant_polynomial(spec, (1, 2)) == \
            canon_polynomial_bruteforce(chain(2), (1, 2), 3)

    def test_small_example(self):
        spec = AmphibianSpec(2, 2, frozenset({(2, 1)}))
        assert dissonant_polynomial(spec, (1, 2)) == P(1, 4, 1)

    def test_fixed_row_gives_multiset_permutations(self):
        # keeping one row chained realizes every multiset permutation once
        m, n = 2, 3
        spec = AmphibianSpec(m, n, frozenset((2, j) for j in range(1, n)))
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
        pair = hstar(g, canon_labeling(idw, (1, 2, 3))) + \
            hstar(g, canon_labeling(idw, (3, 2, 1)))
        assert pair == P(1, 3, 2, 3, 1)
        ge = gamma_expansion(pair, 4)
        assert ge is not None and not ge.gamma_positive

    def test_modes(self):
        assert AmphibianSpec(2, 3, frozenset()).mode() == "canon"
        assert AmphibianSpec(2, 3, frozenset({(1, 1)})).mode() == "fixed-row"
        assert AmphibianSpec(2, 2, frozenset({(1, 1), (2, 1)})).mode() == "general"

    def test_bad_edges(self):
        with pytest.raises(ValueError):
            AmphibianSpec(2, 2, frozenset({(3, 1)}))
        with pytest.raises(ValueError):
            AmphibianSpec(2, 2, frozenset({(1, 2)}))

    def test_from_mask_inverts_edge_mask(self):
        for m, n in ((1, 1), (2, 2), (2, 3), (3, 3)):
            for mask in range(1 << len(removable_edges(m, n))):
                assert AmphibianSpec.from_mask(m, n, mask).edge_mask() == mask
        assert AmphibianSpec.from_mask(2, 3, 0b0110).removed == {(1, 2), (2, 1)}


class TestDegreeLaw:
    def test_sweep(self):
        for m, n in [(2, 2), (2, 3), (3, 2)]:
            for w, k in [(tuple(range(1, m + 1)), 0), (tuple(range(m, 0, -1)), m - 1)]:
                edges = removable_edges(m, n)
                for mask in range(1 << len(edges)):
                    removed = frozenset(e for i, e in enumerate(edges) if mask >> i & 1)
                    spec = AmphibianSpec(m, n, removed)
                    report = dissonant_degree_check(spec, w)
                    assert report.holds, report.witness
                    poly = dissonant_polynomial(spec, w)
                    assert poly.degree == m * (n - 1) + k

    def test_witness_extension_always_valid(self):
        spec = AmphibianSpec(3, 2, frozenset({(1, 1), (3, 1)}))
        ext = degree_witness_extension(spec)
        from canonlab.linext import is_valid_extension

        assert is_valid_extension(spec.poset(), ext)


class TestPalindromyLaw:
    def test_sweep(self):
        for m, n in [(2, 2), (2, 3), (3, 2)]:
            for w in (tuple(range(1, m + 1)), tuple(range(m, 0, -1))):
                edges = removable_edges(m, n)
                for mask in range(1 << len(edges)):
                    removed = frozenset(e for i, e in enumerate(edges) if mask >> i & 1)
                    report = dissonant_palindromy_check(AmphibianSpec(m, n, removed), w)
                    assert report.holds, report.name

    def test_reverse_window(self):
        # reversed rows at (2,2): window reaches m(n-1)+2k = 4
        report = dissonant_palindromy_check(
            AmphibianSpec(2, 2, frozenset()), (2, 1)
        )
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
                    removed = frozenset(e for i, e in enumerate(edges) if mask >> i & 1)
                    q = AmphibianSpec(m, n, removed).poset()
                    for sig in permutations(range(1, n + 1)):
                        lhs = hstar(q, canon_labeling(w, sig)).mirrored(0, mn - 1)
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
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                canon = canon_polynomial_bruteforce(chain(m), tuple(range(1, m + 1)), n)
                assert weak_descent_polynomial(m, n) == canon.shift(m - 1)

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
        assert [set("".join(map(str, w)) for w in b) for b in gi.words] == [
            {"112122"}, {"111222"}
        ]

    def test_3x3_classes(self):
        gi = gamma_interpretation(3, 3)
        assert gi.gamma == (1, 8, 14, 4)
        assert gi.counts == (1, 8, 14, 4)
        assert gi.matches
        for i, expected in GAMMA_CLASS_WORDS_3_3.items():
            got = {"".join(map(str, w)) for w in gi.words[i]}
            assert got == expected, f"bucket {i}"

    def test_single_row_matches_eulerian_gamma(self):
        for n in range(1, 6):
            gi = gamma_interpretation(1, n)
            assert gi.matches
            assert gi.gamma == gamma_expansion(eulerian(n), n - 1).gamma

    def test_counts_helper(self):
        assert gamma_interpretation(2, 3).counts == (1, 3, 2)

    def test_no_full_enumeration(self, monkeypatch):
        # the pruned search replaces enumerating every extension
        import canonlab.canon as canon_mod
        import canonlab.linext as linext_mod

        calls = []
        real = linext_mod.enumerate_linear_extensions

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(linext_mod, "enumerate_linear_extensions", counted)
        monkeypatch.setattr(canon_mod, "enumerate_linear_extensions", counted)
        assert gamma_interpretation(2, 4).counts == (1, 11, 24, 0)
        assert calls == []


class TestConjectureSweep:
    def test_2x3_all_positive(self):
        report = conjecture_sweep(2, 3)
        assert len(report.rows) == 16
        assert not report.violations
        assert all(r.gamma_positive and r.palindromic and r.unimodal for r in report.rows)

    def test_masks_cover_all_subsets(self):
        report = conjecture_sweep(2, 2)
        assert sorted(r.mask for r in report.rows) == list(range(4))

    def test_full_mask_recovers_multiset_row(self):
        # removing everything except one row's rails equals the multiset
        # descent polynomial (fixed-row rows agree with the oracle)
        report = conjecture_sweep(2, 3)
        edges = removable_edges(2, 3)
        target_mask = sum(
            1 << i for i, (row, _) in enumerate(edges) if row == 2
        )
        row = next(r for r in report.rows if r.mask == target_mask)
        counts = {}
        for word in multiset_permutations([1, 1, 2, 2, 3, 3]):
            d = descent_count(word)
            counts[d] = counts.get(d, 0) + 1
        oracle = IntPolynomial(tuple(counts.get(d, 0) for d in range(max(counts) + 1)))
        assert row.polynomial == oracle
        assert row.mode == "fixed-row"

    def test_parallel_matches_serial(self):
        serial = conjecture_sweep(2, 3, jobs=1)
        parallel = conjecture_sweep(2, 3, jobs=4)
        assert serial == parallel

    def test_certificate_payload(self):
        spec = AmphibianSpec(2, 2, frozenset({(1, 1)}))
        cert = Certificate(spec, P(1, -1, 1), (1, -3), "gamma-negative at index 1")
        payload = cert.to_payload()
        assert payload["violation"] == "gamma-negative at index 1"
        assert payload["spec"] == {"m": 2, "n": 2, "removed": [[1, 1]]}
        assert payload["polynomial"] == {"coeffs": ["1", "-1", "1"]}
        assert "poset" in payload


class TestIdentityReport:
    def test_compare_equal(self):
        r = IdentityReport.compare("x", P(1, 2), P(1, 2))
        assert r.holds and r.witness is None

    def test_compare_mismatch(self):
        r = IdentityReport.compare("x", P(1, 2), P(1, 3))
        assert not r.holds
        assert "x^1" in r.witness
