from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_poset

from canonlab.errors import SizeCapError
from canonlab.linext import (
    DyckPath,
    LinearExtension,
    count_linear_extensions,
    descent_count,
    descent_set,
    dyck_from_linext,
    dyck_paths,
    enumerate_linear_extensions,
    high_peak_count,
    high_peak_positions,
    is_canon_permutation,
    is_valid_extension,
    linext_from_dyck,
    multiset_word,
    phi,
    phi_on_extension,
    rho_descent_data,
    weak_descent_count,
    word,
)
from canonlab.poset import (
    Labeling,
    antichain,
    canon_labeling,
    chain,
    checked_labeling,
    checked_product,
    natural_labeling,
    product_with_chain,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


class TestEnumeration:
    def test_chain_single_extension(self):
        assert list(enumerate_linear_extensions(chain(4))) == [
            LinearExtension((0, 1, 2, 3))
        ]

    def test_antichain(self):
        exts = list(enumerate_linear_extensions(antichain(3)))
        assert len(exts) == 6
        assert exts == sorted(exts, key=lambda e: e.order)  # lexicographic

    def test_two_row_grid_counts(self):
        for n in range(1, 9):
            p = product_with_chain(chain(2), n)
            assert count_linear_extensions(p) == CATALAN[n]

    def test_stream_matches_count(self, rng):
        for _ in range(20):
            p = random_poset(rng)
            exts = list(enumerate_linear_extensions(p))
            assert len(exts) == count_linear_extensions(p)
            assert len(set(exts)) == len(exts)

    def test_prefix_partition(self):
        p = product_with_chain(chain(2), 3)
        whole = list(enumerate_linear_extensions(p))
        pieces = []
        for v in range(p.element_count):
            if not p.predecessors(v):
                pieces.extend(enumerate_linear_extensions(p, prefix=(v,)))
        assert sorted(pieces, key=lambda e: e.order) == whole

    def test_bad_prefix(self):
        p = chain(3)
        with pytest.raises(ValueError, match="prefix"):
            list(enumerate_linear_extensions(p, prefix=(1,)))

    def test_early_termination(self):
        stream = enumerate_linear_extensions(antichain(6))
        first = next(stream)
        assert first.order == (0, 1, 2, 3, 4, 5)
        stream.close()

    def test_element_cap(self):
        with pytest.raises(SizeCapError):
            list(enumerate_linear_extensions(antichain(10), cap=8))


class TestWords:
    def test_chain_word(self):
        ext = next(enumerate_linear_extensions(chain(3)))
        assert word(ext, Labeling.natural(3)) == (1, 2, 3)

    def test_word_beginning_1243(self):
        # the checked 3x2 poset has an extension reading 1,2,4,3 first
        p = checked_product(chain(3), 2)
        lab = checked_labeling(Labeling.natural(3), 2)
        ext = LinearExtension((0, 1, 3, 2, 4, 5, 6, 7))
        assert is_valid_extension(p, ext.order)
        assert word(ext, lab)[:4] == (1, 2, 4, 3)

    def test_descents(self):
        assert descent_count((1, 2, 3)) == 0
        assert descent_count((1, 1, 2, 1, 2, 2)) == 1
        assert descent_count((3, 2, 1)) == 2
        assert descent_set((5, 1, 2, 4, 3)) == (1, 4)

    def test_weak_descents(self):
        assert weak_descent_count((1, 1, 2, 2)) == 2
        assert weak_descent_count((1, 3, 5)) == 0
        assert weak_descent_count((2, 2, 1, 1)) == 3


class TestMultisetWords:
    def test_identity_columns(self):
        p = product_with_chain(chain(2), 2)
        lab = canon_labeling(Labeling.natural(2), Labeling.natural(2))
        words = {multiset_word(e, lab, 2) for e in enumerate_linear_extensions(p)}
        assert (1, 1, 2, 2) in words

    def test_swapped_columns(self):
        p = product_with_chain(chain(2), 2)
        lab = canon_labeling(Labeling.natural(2), Labeling((2, 1)))
        words = {multiset_word(e, lab, 2) for e in enumerate_linear_extensions(p)}
        assert words == {(2, 2, 1, 1), (2, 1, 2, 1)}

    def test_canon_check_long_example(self):
        w = tuple(int(c) for c in "223143213144")
        assert is_canon_permutation(w, 3)
        # every copy subsequence spells 2314
        occ = {}
        copies = [[] for _ in range(3)]
        for v in w:
            occ[v] = occ.get(v, 0) + 1
            copies[occ[v] - 1].append(v)
        assert all(tuple(c) == (2, 3, 1, 4) for c in copies)

    def test_canon_check_basic(self):
        assert is_canon_permutation((1, 1, 2, 2), 2)
        assert not is_canon_permutation((1, 2, 2, 1), 2)

    def test_all_extensions_give_canon_words(self):
        for m, n in [(2, 2), (2, 3), (3, 2)]:
            p = product_with_chain(chain(m), n)
            exts = list(enumerate_linear_extensions(p))
            for sig in permutations(range(1, n + 1)):
                lab = canon_labeling(Labeling.natural(m), Labeling(sig))
                for ext in exts:
                    w = multiset_word(ext, lab, m)
                    assert is_canon_permutation(w, m)
                    # the copy pattern is sigma itself
                    first = []
                    seen = set()
                    for v in w:
                        if v not in seen:
                            seen.add(v)
                            first.append(v)
                    assert tuple(first) == sig


class TestDyck:
    def test_validation(self):
        with pytest.raises(ValueError):
            DyckPath("ne")
        with pytest.raises(ValueError):
            DyckPath("ee")
        with pytest.raises(ValueError):
            DyckPath("ex")

    def test_single_column(self):
        p = product_with_chain(chain(2), 1)
        ext = next(enumerate_linear_extensions(p))
        assert dyck_from_linext(p, ext).steps == "en"

    def test_examples_n2(self):
        p = product_with_chain(chain(2), 2)
        by_word = {
            word(e, natural_labeling(p)): dyck_from_linext(p, e).steps
            for e in enumerate_linear_extensions(p)
        }
        assert by_word[(1, 3, 2, 4)] == "eenn"
        assert by_word[(1, 2, 3, 4)] == "enen"

    def test_high_peaks(self):
        assert high_peak_count(DyckPath("enen")) == 0
        assert high_peak_count(DyckPath("eenn")) == 1
        assert high_peak_positions(DyckPath("eennen")) == (2,)

    def test_round_trip_and_descent_peak_match(self):
        for n in range(1, 7):
            p = product_with_chain(chain(2), n)
            lab = natural_labeling(p)
            paths = list(dyck_paths(n))
            assert len(paths) == CATALAN[n]
            for path in paths:
                ext = linext_from_dyck(path)
                assert is_valid_extension(p, ext.order)
                assert dyck_from_linext(p, ext) == path
                assert descent_set(word(ext, lab)) == high_peak_positions(path)

    def test_wrong_poset_shape(self):
        with pytest.raises(ValueError, match="2-chain"):
            dyck_from_linext(chain(4), LinearExtension((0, 1, 2, 3)))


class TestRhoDescents:
    def test_example_words(self):
        p = checked_product(chain(3), 2)
        drops, doubles = rho_descent_data(p, LinearExtension((0, 1, 3, 2, 4, 5, 6, 7)))
        assert drops == frozenset({3, 6}) and not doubles
        drops, doubles = rho_descent_data(p, LinearExtension(tuple(range(8))))
        assert drops == frozenset({2, 4, 6}) and not doubles

    def test_two_chain(self):
        # the unique extension of the smallest checked product rises in both
        # label and parity, so it has no rho-descents at all
        p = checked_product(chain(1), 1)
        drops, doubles = rho_descent_data(p, LinearExtension((0, 1)))
        assert drops == frozenset() and doubles == frozenset()

    def test_doubles_including_first_position(self):
        p = checked_product(chain(2), 2)
        # order 0,2,1,3,... drops parity at position 2 after a label drop at 1?
        for ext in enumerate_linear_extensions(p):
            drops, doubles = rho_descent_data(p, ext)
            assert doubles == frozenset(
                j for j in drops if j == 1 or j - 1 in drops
            )

    def test_wrong_shape(self):
        # a chain IS a checked product of the next-shorter chain with [1],
        # but a two-row grid is not checked at all
        grid = product_with_chain(chain(2), 2)
        with pytest.raises(ValueError, match="checked"):
            rho_descent_data(grid, LinearExtension((0, 1, 2, 3)))


class TestPhi:
    def test_entry_complement(self):
        assert phi(Labeling((1, 3, 4, 2))).values == (4, 2, 1, 3)

    def test_identity_reverses(self):
        assert phi(Labeling.natural(4)) == Labeling.reverse_natural(4)

    def test_involution_s4(self):
        for sig in permutations(range(1, 5)):
            lab = Labeling(sig)
            assert phi(phi(lab)) == lab

    def test_descent_complement(self):
        for sig in permutations(range(1, 5)):
            lab = Labeling(sig)
            assert descent_count(phi(lab).values) == 3 - descent_count(sig)

    def test_fig3_worked_example(self):
        from canonlab.poset import remove_intercopy_covers

        q = remove_intercopy_covers(product_with_chain(chain(2), 4), 2, [(2, 3)])
        w = Labeling.natural(2)
        sigma = Labeling((1, 3, 4, 2))
        lab = canon_labeling(w, sigma)
        by_label = {lab[v]: v for v in range(8)}
        ext = LinearExtension(tuple(by_label[x] for x in (1, 2, 5, 7, 6, 3, 4, 8)))
        same, pw, psigma = phi_on_extension(q, w, sigma, ext)
        assert same == ext
        out = word(ext, canon_labeling(pw, psigma))
        assert out == (8, 7, 4, 2, 3, 6, 5, 1)

    def test_word_complement_and_double_application(self):
        q = product_with_chain(chain(2), 3)
        w = Labeling.natural(2)
        for sig in permutations(range(1, 4)):
            sigma = Labeling(sig)
            lab = canon_labeling(w, sigma)
            for ext in enumerate_linear_extensions(q):
                _, pw, ps = phi_on_extension(q, w, sigma, ext)
                outward = word(ext, canon_labeling(pw, ps))
                inward = word(ext, lab)
                assert outward == tuple(7 - v for v in inward)
                assert descent_count(inward) + descent_count(outward) == 5
                _, w2, s2 = phi_on_extension(q, pw, ps, ext)
                assert (w2, s2) == (w, sigma)

    def test_invalid_input_rejected(self):
        q = product_with_chain(chain(2), 2)
        with pytest.raises(ValueError, match="violates"):
            phi_on_extension(q, Labeling.natural(2), Labeling.natural(2),
                             LinearExtension((1, 0, 2, 3)))


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=1, max_value=5))
def test_antichain_extension_count_is_factorial(n):
    import math

    assert count_linear_extensions(antichain(n)) == math.factorial(n)


@settings(deadline=None, max_examples=50)
@given(st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=8))
def test_descent_weak_descent_split(letters):
    pairs = len(letters) - 1
    strict = descent_count(letters)
    weak = weak_descent_count(letters)
    equal = sum(1 for a, b in zip(letters, letters[1:]) if a == b)
    assert weak == strict + equal
    assert 0 <= strict <= pairs
