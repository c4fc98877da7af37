"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
PASS lines and timings).  Every expected value is exact; the timing
bounds are part of the criteria.
"""

import time
from itertools import permutations
from math import comb

from conftest import (
    SIGMA_GRIDS,
    order_polynomial_values,
    removable_edges,
    weak_descent_lanes_per_sigma,
)

from canonlab.canon import AmphibianSpec, canon_polynomial_bruteforce, dissonant_polynomial
from canonlab.cli import main
from canonlab.forms import (
    canon_polynomial_product,
    eulerian,
    gamma_expansion,
    is_palindromic,
    is_unimodal,
    narayana,
    weak_descent_polynomial,
)
from canonlab.gamma import gamma_class_words, gamma_interpretation
from canonlab.kernel import count_extensions
from canonlab.linext import enumerate_linear_extensions
from canonlab.polys import IntPolynomial, hstar
from canonlab.poset import (
    canon_labeling,
    chain,
    product_with_chain,
)
from canonlab.sweep import conjecture_sweep
from canonlab.verify import (
    _weak_descent_lanes,
    checked_product_identity,
    descent_count,
    dissonant_degree_check,
    dissonant_palindromy_check,
    high_peak_positions,
    word,
)

from conftest import (
    dyck_paths,
    gamma_polynomial,
    poly_sum,
    random_labeling,
    random_poset,
    vee_poset,
    wedge_poset,
)


def P(*coeffs):
    return IntPolynomial(tuple(coeffs))


def _report(number, message):
    print(f"ACCEPTANCE {number:02d}: PASS  {message}")


def test_criterion_01_product_form_at_3_2():
    t0 = time.perf_counter()
    brute = canon_polynomial_bruteforce(chain(3), (1, 2, 3), 2)
    product = canon_polynomial_product(chain(3), (1, 2, 3), 2)
    expected = P(1, 1) * P(1, 3, 1)
    assert brute == product == expected == P(1, 4, 4, 1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"C_2^3 = (1+x)(1+3x+x^2) both routes in {elapsed:.3f}s")


def test_criterion_02_two_row_canon_polynomials():
    t0 = time.perf_counter()
    for n in range(1, 6):
        brute = canon_polynomial_bruteforce(chain(2), (1, 2), n)
        assert brute == eulerian(n) * narayana(n), n
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(2, f"C_n^2 = A_n * N_n for n=1..5 in {elapsed:.3f}s")


def test_criterion_03_narayana_model():
    catalan = [1, 2, 5, 14, 42, 132, 429]
    for n in range(1, 8):
        grid = product_with_chain(chain(2), n)
        peaks = [0] * n
        for path in dyck_paths(n):  # brute force: every e/n placement
            peaks[len(high_peak_positions(path))] += 1
        assert hstar(grid) == IntPolynomial(peaks) == narayana(n)
        assert count_extensions(grid) == catalan[n - 1]
    _report(3, "h*([2]x[n]) equals the high-peak polynomial N_n, counts Catalan, n<=7")


def test_criterion_04_labeled_product_formula():
    cases = [
        (chain(1), [(1,)]),
        (chain(2), [(1, 2), (2, 1)]),
        (chain(3), [(1, 2, 3), (3, 2, 1), (1, 3, 2)]),
        (vee_poset(), [(1, 2, 3), (3, 1, 2)]),
        (wedge_poset(), [(1, 2, 3), (2, 3, 1)]),
    ]
    checked = 0
    for p, labelings in cases:
        for w in labelings:
            for n in (1, 2, 3):
                brute = canon_polynomial_bruteforce(p, w, n)
                product = canon_polynomial_product(p, w, n)
                assert brute == product, (p, w, n)
                checked += 1
    _report(4, f"x^k A_n h* product formula on {checked} labeled-poset cases")


def test_criterion_05_checked_product_identity():
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            report = checked_product_identity(chain(m), tuple(range(1, m + 1)), n)
            assert report.holds, report.witness
    _report(5, "canon polynomial equals checked-product h* for m,n <= 3")


def test_criterion_06_palindromy_sweep():
    t0 = time.perf_counter()
    total = 0
    for m, n in [(2, 2), (2, 3), (3, 2)]:
        edges = removable_edges(m, n)
        for w in (tuple(range(1, m + 1)), tuple(range(m, 0, -1))):
            for mask in range(1 << len(edges)):
                removed = [e for i, e in enumerate(edges) if mask >> i & 1]
                spec = AmphibianSpec.from_removed(m, n, removed)
                report = dissonant_palindromy_check(spec, w, dissonant_polynomial(spec, w))
                assert report.holds, report.name
                total += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(6, f"{total} dissonant polynomials palindromic over [0, m(n-1)+2k] in {elapsed:.3f}s")


def test_criterion_07_degree_law():
    total = 0
    for m, n in [(2, 2), (2, 3), (3, 2)]:
        edges = removable_edges(m, n)
        for w in (tuple(range(1, m + 1)), tuple(range(m, 0, -1))):
            for mask in range(1 << len(edges)):
                removed = [e for i, e in enumerate(edges) if mask >> i & 1]
                spec = AmphibianSpec.from_removed(m, n, removed)
                report = dissonant_degree_check(spec, w, dissonant_polynomial(spec, w))
                assert report.holds, report.witness
                total += 1
    _report(7, f"{total} dissonant polynomials have degree m(n-1)+k")


def test_criterion_08_gamma_negative_pair():
    grid = product_with_chain(chain(2), 3)
    idw = (1, 2)
    pair = poly_sum(hstar(grid, canon_labeling(idw, (1, 2, 3))),
                    hstar(grid, canon_labeling(idw, (3, 2, 1))))
    assert pair == P(1, 3, 2, 3, 1)
    assert is_palindromic(pair, 4)
    # exact gamma coordinates of 1+3x+2x^2+3x^3+x^4 over center degree 4
    assert gamma_expansion(pair, 4) == (1, -1, -2)
    assert not is_unimodal(pair)
    assert gamma_polynomial((1, -1, -2), 4) == pair
    _report(8, "identity+reversed column pair is palindromic, gamma-negative, non-unimodal")


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


def test_criterion_09_gamma_interpretation():
    t0 = time.perf_counter()
    gi = gamma_interpretation(3, 2)
    assert gi.gamma == gi.counts == (1, 1)
    assert gi.matches and gi.shift == gi.stated_shift
    assert [set(b) for b in gamma_class_words(gi)] == [{"112122"}, {"111222"}]

    gi = gamma_interpretation(3, 3)
    assert gi.gamma == gi.counts == (1, 8, 14, 4)
    assert gi.matches and gi.shift == gi.stated_shift
    words = gamma_class_words(gi)
    for i, expected in GAMMA_CLASS_WORDS_3_3.items():
        assert set(words[i]) == expected, f"bucket {i}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(9, f"gamma interpretation (1,1) and (1,8,14,4) with all 27 class words in {elapsed:.3f}s")


def test_criterion_10_weak_descents():
    for m, n in SIGMA_GRIDS:
        weak = weak_descent_polynomial(m, n)  # the class route on the reversed rows
        assert weak == _weak_descent_lanes(m, n), (m, n)  # on the negated letters
        assert weak == weak_descent_lanes_per_sigma(m, n), (m, n)  # one lane per sigma
        canon = canon_polynomial_bruteforce(chain(m), tuple(range(1, m + 1)), n)
        assert weak == canon.shift(m - 1), (m, n)
    _report(10, "weak-descent polynomial equals x^(m-1) C_n^m for m <= 2, n <= 6 and "
                "m = 3, n <= 5, by three routes")


def test_criterion_11_property_suite(rng, capsys):
    # order-polynomial generating-function contract on random labeled posets
    for _ in range(20):
        p = random_poset(rng, max_elements=5)
        w = random_labeling(rng, p.element_count)
        omega = order_polynomial_values(p, w, 8)
        h = hstar(p, w)
        n = p.element_count
        for j in range(9):
            assert omega[j] == sum(
                h.coefficient(i) * comb(n + j - i, n) for i in range(j + 1)
            )

    # phi duality at (2, 3): complementing w and sigma (v -> N+1-v)
    # complements every canon word, so descents and ascents swap
    q = product_with_chain(chain(2), 3)
    w = (1, 2)
    pw = (2, 1)
    for sig in permutations(range(1, 4)):
        lab = canon_labeling(w, sig)
        flipped_lab = canon_labeling(pw, tuple(4 - v for v in sig))
        assert flipped_lab == tuple(7 - v for v in lab)
        for ext in enumerate_linear_extensions(q):
            flipped = word(ext, flipped_lab)
            assert flipped == tuple(7 - v for v in word(ext, lab))
            assert descent_count(word(ext, lab)) + descent_count(flipped) == 5

    # determinism of the sweep output across parallelism levels
    outputs = []
    for jobs in ("1", "4"):
        code = main(["sweep", "gamma", "--m", "2", "--n", "3", "--format", "csv",
                     "--jobs", jobs])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    _report(11, "order-polynomial contract, phi duality, jobs-1/4 determinism")


def test_criterion_12_conjecture_sweep():
    for m, n in [(2, 2), (2, 3), (3, 2), (2, 4)]:
        rows = conjecture_sweep(m, n)
        edges = removable_edges(m, n)
        assert [r.mask for r in rows] == list(range(1 << len(edges)))
        # internal consistency of every row
        for row in rows:
            assert row.degree == m * (n - 1)
            assert row.palindromic
            assert row.gamma is not None
            total = sum(
                g * 2 ** (m * (n - 1) - 2 * i) for i, g in enumerate(row.gamma)
            )
            spec = AmphibianSpec(m, n, row.mask)
            ext_count = count_extensions(spec.poset())
            import math

            assert total == ext_count * math.factorial(n)
        negatives = [r for r in rows if not r.gamma_positive]
        # recorded outcome: no gamma-negative subposet at these sizes
        assert not negatives, f"violations found at ({m},{n})"
    _report(12, "conjecture sweep at (2,2),(2,3),(3,2),(2,4): zero gamma-negative subposets")
