import time
from itertools import permutations
from math import comb, factorial

import pytest

from conftest import (
    dyck_paths,
    gamma_polynomial,
    order_polynomial_values,
    random_labeling,
    random_poset,
)

from canonlab.errors import SizeCapError
from canonlab.linext import enumerate_linear_extensions
from canonlab.polys import (
    MAX_NAMED_N,
    IntPolynomial,
    eulerian,
    gamma_expansion,
    hstar,
    is_palindromic,
    is_unimodal,
    narayana,
    poly_to_payload,
)
from canonlab.poset import (
    canon_labeling,
    chain,
    product_with_chain,
)
from canonlab.verify import (
    antichain,
    descent_count,
    high_peak_positions,
    word,
)


def P(*coeffs):
    return IntPolynomial(tuple(coeffs))


class TestArithmetic:
    def test_products(self):
        assert P(1, 1) * P(1, 3, 1) == P(1, 4, 4, 1)
        assert P(1, 3, 1) * P(1, 0, 1) == P(1, 3, 2, 3, 1)
        assert P(2) * P() == P()

    def test_identity(self):
        p = P(5, -2, 7)
        assert p * P(1) == p

    def test_shift(self):
        assert P(1, 1).shift(2) == P(0, 0, 1, 1)
        assert P().shift(3) == P()

    def test_negative_shift_refused_for_zero_too(self):
        for p in (P(), P(1)):
            with pytest.raises(ValueError, match="shift amount must be non-negative"):
                p.shift(-1)

    def test_normalization(self):
        assert P(1, 2, 0, 0) == P(1, 2)
        assert P(0, 0).degree == -1
        assert P(1, 2).degree == 1

    def test_trailing_zeros_stripped_in_linear_time(self):
        # h* of a long chain is 1 and a zero per further element
        start = time.perf_counter()
        assert IntPolynomial((1,) + (0,) * 100_000).coefficients == (1,)
        assert time.perf_counter() - start < 1

    def test_payload_round_trip(self):
        p = P(1, 4, 4, 1)
        payload = poly_to_payload(p)
        assert payload == {"coeffs": ["1", "4", "4", "1"]}
        assert IntPolynomial(int(c) for c in payload["coeffs"]) == p

    def test_str(self):
        assert str(P(1, 3, 2, 3, 1)) == "1 + 3x + 2x^2 + 3x^3 + x^4"
        assert str(P()) == "0"


class TestEulerian:
    def test_small_values(self):
        assert eulerian(1) == P(1)
        assert eulerian(2) == P(1, 1)
        assert eulerian(3) == P(1, 4, 1)
        assert eulerian(4) == P(1, 11, 11, 1)

    def test_brute_matches_recurrence(self):
        # the descent counts of all n! permutations, and h* of the
        # n-antichain, whose linear extensions are those permutations
        for n in range(1, 9):
            counts = [0] * n
            for perm in permutations(range(n)):
                counts[descent_count(perm)] += 1
            assert eulerian(n) == IntPolynomial(counts) == hstar(antichain(n)), n

    def test_palindromic(self):
        for n in range(1, 7):
            assert is_palindromic(eulerian(n), n - 1)

    def test_total_mass(self):
        assert sum(eulerian(6).coefficients) == factorial(6)

    def test_large_n(self):
        a = eulerian(600)
        assert sum(a.coefficients) == factorial(600)
        assert is_palindromic(a, 599)


class TestNarayana:
    def test_small_values(self):
        assert narayana(1) == P(1)
        assert narayana(2) == P(1, 1)
        assert narayana(3) == P(1, 3, 1)
        assert narayana(4) == P(1, 6, 6, 1)

    def test_matches_two_row_hstar(self):
        for n in range(1, 11):
            assert narayana(n) == hstar(product_with_chain(chain(2), n))

    def test_matches_high_peak_brute_force(self):
        for n in range(1, 8):
            counts = [0] * n
            for path in dyck_paths(n):
                counts[len(high_peak_positions(path))] += 1
            assert narayana(n) == IntPolynomial(counts), n

    def test_palindromic(self):
        for n in range(1, 7):
            assert is_palindromic(narayana(n), n - 1)


def test_named_polynomials_refuse_large_n_at_once():
    assert narayana(MAX_NAMED_N).degree == MAX_NAMED_N - 1
    for n in (MAX_NAMED_N + 1, 10**18):
        for build in (eulerian, narayana):
            with pytest.raises(SizeCapError, match="exceeds the bound"):
                build(n)


class TestHstar:
    def test_chain(self):
        for m in (1, 3, 5):
            assert hstar(chain(m)) == P(1)

    def test_antichain_2(self):
        assert hstar(antichain(2)) == P(1, 1)

    def test_grid_2x3(self):
        assert hstar(product_with_chain(chain(2), 3)) == P(1, 3, 1)

    def test_grid_2x3_reversed_columns(self):
        p = product_with_chain(chain(2), 3)
        lab = canon_labeling((1, 2), (3, 2, 1))
        assert hstar(p, lab) == P(0, 0, 1, 3, 1)

    def test_example_words_3x2(self):
        p = product_with_chain(chain(3), 2)
        assert hstar(p, canon_labeling((1, 2, 3), (1, 2))) == P(1, 3, 1)
        assert hstar(p, canon_labeling((1, 2, 3), (2, 1))) == P(0, 1, 3, 1)

    def test_matches_direct_enumeration(self, rng):
        for _ in range(15):
            p = random_poset(rng)
            w = random_labeling(rng, p.element_count)
            counts = {}
            for ext in enumerate_linear_extensions(p):
                d = descent_count(word(ext, w))
                counts[d] = counts.get(d, 0) + 1
            direct = IntPolynomial(
                tuple(counts.get(d, 0) for d in range(max(counts) + 1))
            )
            assert hstar(p, w) == direct


class TestOrderPolynomial:
    def test_chain_2_natural(self):
        assert order_polynomial_values(chain(2), (1, 2), 2) == (1, 3, 6)

    def test_chain_2_reversed(self):
        assert order_polynomial_values(chain(2), (2, 1), 2) == (0, 1, 3)

    def test_antichain_2(self):
        vals = order_polynomial_values(antichain(2), (1, 2), 3)
        assert vals == tuple((j + 1) ** 2 for j in range(4))

    def test_generating_function_contract(self, rng):
        # Omega(j) must equal the coefficients of h*/(1-x)^(N+1)
        for _ in range(20):
            p = random_poset(rng)
            w = random_labeling(rng, p.element_count)
            n = p.element_count
            j_max = 8
            omega = order_polynomial_values(p, w, j_max)
            h = hstar(p, w)
            for j in range(j_max + 1):
                expected = sum(
                    h.coefficient(i) * comb(n + j - i, n) for i in range(j + 1)
                )
                assert omega[j] == expected


class TestPalindromy:
    def test_basic(self):
        assert is_palindromic(P(1, 4, 4, 1), 3)
        assert is_palindromic(P(0, 1, 3, 1), 4)
        assert not is_palindromic(P(1, 2), 1)

    def test_zero_padded(self):
        assert is_palindromic(P(0, 1, 3, 1), 4)
        assert not is_palindromic(P(0, 1, 3, 1), 3)

    def test_support_beyond_window(self):
        assert not is_palindromic(P(1, 0, 0, 0, 1), 3)


class TestGamma:
    def test_canon_example(self):
        assert gamma_expansion(P(1, 4, 4, 1), 3) == (1, 1)
        assert gamma_polynomial((1, 1), 3) == P(1, 4, 4, 1)

    def test_binomial_row(self):
        for d in range(7):
            gamma = gamma_expansion(IntPolynomial(tuple(comb(d, i) for i in range(d + 1))), d)
            assert gamma == (1,) + (0,) * (d // 2)

    def test_counterexample_is_gamma_negative(self):
        # (1+3x+x^2)(1+x^2): palindromic, neither gamma-positive nor unimodal
        p = P(1, 3, 1) * P(1, 0, 1)
        assert p == P(1, 3, 2, 3, 1)
        gamma = gamma_expansion(p, 4)
        assert gamma is not None and min(gamma) < 0
        assert not is_unimodal(p)
        assert gamma_polynomial(gamma, 4) == p

    def test_absent_for_non_palindromic(self):
        assert gamma_expansion(P(1, 2), 1) is None

    def test_reconstruction_random(self, rng):
        # 100 random palindromic polynomials of degree <= 12
        for _ in range(100):
            d = rng.randint(0, 12)
            half = [rng.randint(-9, 9) for _ in range(d // 2 + 1)]
            coeffs = list(half)
            tail = half[: (d + 1) - len(half)]
            coeffs += list(reversed(tail))
            p = IntPolynomial(tuple(coeffs))
            if p.degree > d:
                continue
            gamma = gamma_expansion(p, d)
            assert gamma is not None
            assert gamma_polynomial(gamma, d) == p


class TestUnimodal:
    def test_cases(self):
        assert is_unimodal(P(1, 3, 1))
        assert is_unimodal(P(1, 1, 1))
        assert is_unimodal(P(1, 2, 2, 1))
        assert not is_unimodal(P(1, 3, 2, 3, 1))
        assert is_unimodal(P())


def test_mul_commutes_and_degree(rng):
    def coefficients():
        return tuple(rng.randint(-20, 20) for _ in range(rng.randint(0, 8)))

    for _ in range(60):
        pa, pb = IntPolynomial(coefficients()), IntPolynomial(coefficients())
        assert pa * pb == pb * pa
        prod = pa * pb
        if pa.coefficients and pb.coefficients:
            assert prod.degree <= pa.degree + pb.degree


def test_gamma_of_reconstruction():
    for d in range(11):
        gamma = (1,) * (d // 2 + 1)
        assert gamma_expansion(gamma_polynomial(gamma, d), d) == gamma
