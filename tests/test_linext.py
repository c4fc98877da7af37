from collections import Counter
from itertools import permutations

import pytest

from conftest import dyck_paths, random_poset

from canonlab.kernel import count_extensions
from canonlab import gamma
from canonlab.gamma import rho_halves, rho_orders
from canonlab.linext import enumerate_linear_extensions
from canonlab.poset import (
    Poset,
    canon_labeling,
    chain,
    checked_labeling,
    checked_product,
    natural_labeling,
    product_with_chain,
    rho_parities,
)
from canonlab.verify import (
    _rho_drops,
    antichain,
    descent_count,
    descent_set,
    dyck_from_linext,
    high_peak_positions,
    is_canon_permutation,
    is_dyck_path,
    is_valid_extension,
    linext_from_dyck,
    multiset_word,
    weak_descent_count,
    word,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


class TestEnumeration:
    def test_chain_single_extension(self):
        assert list(enumerate_linear_extensions(chain(4))) == [(0, 1, 2, 3)]

    def test_antichain(self):
        exts = list(enumerate_linear_extensions(antichain(3)))
        assert len(exts) == 6
        assert exts == sorted(exts)  # lexicographic

    def test_two_row_grid_counts(self):
        for n in range(1, 9):
            p = product_with_chain(chain(2), n)
            assert count_extensions(p) == CATALAN[n]

    def test_stream_matches_count(self, rng):
        for _ in range(20):
            p = random_poset(rng)
            exts = list(enumerate_linear_extensions(p))
            assert len(exts) == count_extensions(p)
            assert len(set(exts)) == len(exts)
            assert all(type(e) is tuple for e in exts)
            assert exts == sorted(exts)
            assert all(is_valid_extension(p, e) for e in exts)

    def test_empty_poset(self):
        assert list(enumerate_linear_extensions(Poset(0, frozenset()))) == [()]

    def test_early_termination(self):
        stream = enumerate_linear_extensions(antichain(6))
        first = next(stream)
        assert first == (0, 1, 2, 3, 4, 5)
        stream.close()


class TestWords:
    def test_chain_word(self):
        ext = next(enumerate_linear_extensions(chain(3)))
        assert word(ext, (1, 2, 3)) == (1, 2, 3)

    def test_word_beginning_1243(self):
        # the checked 3x2 poset has an extension reading 1,2,4,3 first
        p = checked_product(chain(3), 2)
        lab = checked_labeling((1, 2, 3), 2)
        ext = (0, 1, 3, 2, 4, 5, 6, 7)
        assert is_valid_extension(p, ext)
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
        lab = canon_labeling((1, 2), (1, 2))
        words = {multiset_word(e, lab, 2) for e in enumerate_linear_extensions(p)}
        assert (1, 1, 2, 2) in words

    def test_swapped_columns(self):
        p = product_with_chain(chain(2), 2)
        lab = canon_labeling((1, 2), (2, 1))
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
                lab = canon_labeling(tuple(range(1, m + 1)), sig)
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
        assert is_dyck_path("") and is_dyck_path("en") and is_dyck_path("eenenn")
        assert not is_dyck_path("ne")
        assert not is_dyck_path("ee")
        assert not is_dyck_path("ex")

    def test_single_column(self):
        p = product_with_chain(chain(2), 1)
        ext = next(enumerate_linear_extensions(p))
        assert dyck_from_linext(p, ext) == "en"

    def test_examples_n2(self):
        p = product_with_chain(chain(2), 2)
        by_word = {
            word(e, natural_labeling(p)): dyck_from_linext(p, e)
            for e in enumerate_linear_extensions(p)
        }
        assert by_word[(1, 3, 2, 4)] == "eenn"
        assert by_word[(1, 2, 3, 4)] == "enen"

    def test_high_peaks(self):
        assert high_peak_positions("enen") == ()
        assert high_peak_positions("eenn") == (2,)
        assert high_peak_positions("eennen") == (2,)

    def test_round_trip_and_descent_peak_match(self):
        for n in range(1, 7):
            p = product_with_chain(chain(2), n)
            lab = natural_labeling(p)
            paths = dyck_paths(n)
            assert len(paths) == CATALAN[n]
            for path in paths:
                ext = linext_from_dyck(path)
                assert type(ext) is tuple and is_valid_extension(p, ext)
                assert dyck_from_linext(p, ext) == path
                assert descent_set(word(ext, lab)) == high_peak_positions(path)

    def test_wrong_poset_shape(self):
        with pytest.raises(ValueError, match="2-chain"):
            dyck_from_linext(chain(4), (0, 1, 2, 3))


class TestRhoDescents:
    def test_example_words(self):
        p = checked_product(chain(3), 2)
        parities = rho_parities(p)
        drops, doubles = _rho_drops(parities, (0, 1, 3, 2, 4, 5, 6, 7))
        assert drops == [3, 6] and not doubles
        drops, doubles = _rho_drops(parities, tuple(range(8)))
        assert drops == [2, 4, 6] and not doubles

    def test_two_chain(self):
        # the unique extension of the smallest checked product rises in both
        # label and parity, so it has no rho-descents at all
        p = checked_product(chain(1), 1)
        assert _rho_drops(rho_parities(p), (0, 1)) == ([], [])

    def test_doubles_including_first_position(self):
        p = checked_product(chain(2), 2)
        parities = rho_parities(p)
        for ext in enumerate_linear_extensions(p):
            drops, doubles = _rho_drops(parities, ext)
            assert doubles == [j for j in drops if j == 1 or j - 1 in drops]

    def test_wrong_shape(self):
        # the halves build their checked product from (m, n) themselves
        with pytest.raises(ValueError, match="chain size must be >= 1"):
            rho_halves(0, 2)
        with pytest.raises(ValueError, match="chain factor must have size >= 1"):
            rho_halves(2, 0)

    def test_halves_match_filtered_enumeration(self, monkeypatch):
        # oracle: every extension, filtered afterwards by the double
        # rho-descent rule and the final-pair rule; the halves give each
        # once as g + t, with the sum of its halves' falls (m = 1: a
        # one-chain grid, most of the work in the tops)
        visits = []

        class Steps(list):  # one pass over a state's steps per state the walk visits
            def __iter__(self):
                visits.append(len(self))
                return super().__iter__()

        steps = gamma._steps
        monkeypatch.setattr(gamma, "_steps", lambda graph: [Steps(s) for s in steps(graph)])
        for m in range(1, 16):
            for n in range(1, 16 // (m + 1) + 1):
                p = checked_product(chain(m), n)
                parities = rho_parities(p)
                expected = Counter()
                for ext in enumerate_linear_extensions(p):
                    drops, doubles = _rho_drops(parities, ext)
                    last, prev = ext[-1], ext[-2]
                    if doubles or (parities[prev] == parities[last] == 1 and prev > last):
                        continue
                    expected[ext, len(drops)] += 1
                halves = []
                for counts, graph in rho_halves(m, n):
                    visits.clear()
                    ways = list(rho_orders(graph))
                    assert ways == sorted(ways, key=lambda way: way[1]), (m, n)
                    # the walk visits exactly the prefixes of the ways it
                    # lists, so none of its walks ends short
                    prefixes = {order[:k] for _, order in ways for k in range(len(order) + 1)}
                    assert len(visits) == len(prefixes), (m, n)
                    # the counts, read with no way listed, are the listing's
                    falls = Counter(d for d, _ in ways)
                    assert counts == [falls[d] for d in range(len(counts))], (m, n)
                    assert sum(counts) == len(ways), (m, n)
                    halves.append(ways)
                grid, tops = halves
                got = Counter((g + tuple(m * n + j for j in t), dg + dt)
                              for dg, g in grid for dt, t in tops)
                assert got == expected, (m, n)


def _phi(lab: tuple[int, ...]) -> tuple[int, ...]:
    """The complement of a labeling: every entry v becomes N+1-v."""
    return tuple(len(lab) + 1 - v for v in lab)


class TestPhi:
    # complementing both factors complements the canon labeling:
    # canon_labeling(phi(w), phi(sigma)) = mn+1 - canon_labeling(w, sigma)

    def test_entry_complement(self):
        w, sigma = (1, 2), (1, 3, 4, 2)
        lab = canon_labeling(_phi(w), _phi(sigma))
        assert lab == tuple(9 - v for v in canon_labeling(w, sigma))
        assert lab == (8, 7, 4, 3, 2, 1, 6, 5)

    def test_identity_reverses(self):
        assert canon_labeling(_phi((1, 2, 3)), _phi((1, 2, 3, 4))) == (
            tuple(range(12, 0, -1))
        )

    def test_involution_s4(self):
        for w in ((1, 2), (2, 1), (1, 2, 3)):
            for sigma in permutations(range(1, 5)):
                lab = canon_labeling(w, sigma)
                flipped = canon_labeling(_phi(w), _phi(sigma))
                assert flipped == tuple(len(lab) + 1 - v for v in lab)
                assert canon_labeling(_phi(_phi(w)), _phi(_phi(sigma))) == lab

    def test_descent_complement(self):
        # complementing the labels swaps descents and ascents of every word
        q = product_with_chain(chain(2), 2)
        w = (1, 2)
        for sig in permutations(range(1, 5)):
            assert descent_count(_phi(sig)) == 3 - descent_count(sig)
        for sigma in permutations(range(1, 3)):
            for ext in enumerate_linear_extensions(q):
                d = descent_count(word(ext, canon_labeling(w, sigma)))
                flipped = canon_labeling(_phi(w), _phi(sigma))
                assert descent_count(word(ext, flipped)) == 3 - d

    def test_fig3_worked_example(self):
        q = product_with_chain(chain(2), 4, 1 << 5)  # less (1, 3) < (1, 4)
        w = (1, 2)
        sigma = (1, 3, 4, 2)
        lab = canon_labeling(w, sigma)
        by_label = {lab[v]: v for v in range(8)}
        ext = tuple(by_label[x] for x in (1, 2, 5, 7, 6, 3, 4, 8))
        assert is_valid_extension(q, ext)
        out = word(ext, canon_labeling(_phi(w), _phi(sigma)))
        assert out == (8, 7, 4, 2, 3, 6, 5, 1)

    def test_word_complement_and_double_application(self):
        q = product_with_chain(chain(2), 3)
        w = (1, 2)
        for sigma in permutations(range(1, 4)):
            lab = canon_labeling(w, sigma)
            pw, ps = _phi(w), _phi(sigma)
            for ext in enumerate_linear_extensions(q):
                outward = word(ext, canon_labeling(pw, ps))
                inward = word(ext, lab)
                assert outward == tuple(7 - v for v in inward)
                assert descent_count(inward) + descent_count(outward) == 5
            assert (_phi(pw), _phi(ps)) == (w, sigma)

    def test_invalid_input_rejected(self):
        # an order that breaks a cover is no extension, so it has no word
        # to complement; the Dyck encoding refuses it too
        q = product_with_chain(chain(2), 2)
        assert not is_valid_extension(q, (1, 0, 2, 3))
        with pytest.raises(ValueError, match="not a linear extension"):
            dyck_from_linext(q, (1, 0, 2, 3))


def test_antichain_extension_count_is_factorial():
    import math

    for n in range(1, 6):
        assert count_extensions(antichain(n)) == math.factorial(n)


def test_descent_weak_descent_split(rng):
    for _ in range(50):
        letters = [rng.randint(1, 6) for _ in range(rng.randint(2, 8))]
        pairs = len(letters) - 1
        strict = descent_count(letters)
        weak = weak_descent_count(letters)
        equal = sum(1 for a, b in zip(letters, letters[1:]) if a == b)
        assert weak == strict + equal
        assert 0 <= strict <= pairs
