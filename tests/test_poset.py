from itertools import permutations

import pytest

from conftest import random_labeling, random_poset, vee_poset, wedge_poset

from canonlab.errors import PosetFormatError
from canonlab.linext import count_linear_extensions, enumerate_linear_extensions
from canonlab.polys import hstar
from canonlab.poset import (
    ChainDescentProfile,
    Poset,
    antichain,
    canon_labeling,
    chain,
    chain_descent_profile,
    checked_labeling,
    checked_product,
    is_graded,
    maximal_chains,
    natural_labeling,
    poset_from_json,
    poset_to_json,
    product_with_chain,
    remove_intercopy_covers,
    rho_parities,
    transitive_reduction,
)


class TestConstruction:
    def test_chain(self):
        p = chain(3)
        assert p.covers == frozenset({(0, 1), (1, 2)})
        assert chain(1).covers == frozenset()
        assert count_linear_extensions(chain(2)) == 1

    def test_antichain(self):
        assert antichain(1) == chain(1)
        p = antichain(3)
        assert not p.covers
        assert count_linear_extensions(p) == 6

    def test_rejects_cycle(self):
        with pytest.raises(PosetFormatError, match=r"cyclic: \[0, 1, 2, 0\]$"):
            Poset(3, frozenset({(0, 1), (1, 2), (2, 0)}))

    def test_long_cycle_message_is_short(self):
        covers = frozenset((v, (v + 1) % 1500) for v in range(1500))
        for build in (lambda: Poset(1500, covers), lambda: transitive_reduction(1500, covers)):
            with pytest.raises(PosetFormatError) as info:
                build()
            message = str(info.value)
            assert "cyclic: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...]" in message
            assert message.endswith("a cycle of 1500 elements") and len(message) < 120

    def test_rejects_redundant_cover(self):
        with pytest.raises(PosetFormatError, match="redundant"):
            Poset(3, frozenset({(0, 1), (1, 2), (0, 2)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(PosetFormatError, match="out of range"):
            Poset(2, frozenset({(0, 5)}))
        with pytest.raises(PosetFormatError, match="self-loop"):
            Poset(2, frozenset({(1, 1)}))


class TestProducts:
    def test_grid_2x4_structure(self):
        p = product_with_chain(chain(2), 4)
        assert p.element_count == 8
        # two-row grid: column covers plus the inter-copy rails
        expected = {(0, 1), (2, 3), (4, 5), (6, 7)}
        expected |= {(0, 2), (2, 4), (4, 6), (1, 3), (3, 5), (5, 7)}
        assert p.covers == frozenset(expected)

    def test_identity_factor(self):
        assert product_with_chain(chain(1), 5) == chain(5)

    def test_grid_2x2_counts(self):
        p = product_with_chain(chain(2), 2)
        assert len(p.covers) == 4
        assert count_linear_extensions(p) == 2

    def test_layout_contract(self):
        p = product_with_chain(chain(3), 2)
        # (row p, copy j) sits at p + (j-1)*m
        assert (0, 3) in p.covers  # (0,1) < (0,2)
        assert (0, 1) in p.covers  # (0,1) < (1,1)

    def test_cardinalities(self):
        for m in range(1, 4):
            for n in range(1, 4):
                assert product_with_chain(chain(m), n).element_count == m * n
                assert checked_product(chain(m), n).element_count == (m + 1) * n

    def test_products_are_transitively_reduced(self):
        for base in (chain(2), chain(3), vee_poset(), wedge_poset()):
            for n in (1, 2, 3):
                p = product_with_chain(base, n)
                assert transitive_reduction(p.element_count, p.covers) == p.covers
                c = checked_product(base, n)
                assert transitive_reduction(c.element_count, c.covers) == c.covers

    def test_checked_product_fig2_shape(self):
        p = checked_product(chain(2), 3)
        assert p.element_count == 9
        tops = {6, 7, 8}
        assert set(p.maximal_elements()) == tops
        for t in tops:
            assert (5, t) in p.covers  # each new element covers the product maximum

    def test_checked_product_trivial(self):
        assert checked_product(chain(1), 1) == chain(2)

    def test_checked_product_graded(self):
        p = checked_product(chain(2), 2)
        assert is_graded(p)
        # maximal chains run bottom row, top row, across, then a new top
        assert {len(c) - 1 for c in maximal_chains(p)} == {3}

    def test_maximal_chains_depth_first(self):
        assert maximal_chains(product_with_chain(chain(2), 2)) == ((0, 1, 3), (0, 2, 3))
        assert maximal_chains(vee_poset()) == ((0, 1), (0, 2))
        assert maximal_chains(antichain(2)) == ((0,), (1,))
        assert maximal_chains(Poset(0, frozenset())) == ()

    def test_maximal_chains_of_a_long_chain(self):
        assert maximal_chains(chain(1100)) == (tuple(range(1100)),)


class TestLabelings:
    def test_canon_labeling_fig1(self):
        lab = canon_labeling((2, 1), (1, 2, 3, 4))
        assert lab == (2, 1, 4, 3, 6, 5, 8, 7)

    def test_canon_labeling_identity(self):
        lab = canon_labeling((1, 2), (1, 2, 3))
        assert lab == tuple(range(1, 7))

    def test_canon_labeling_swapped_columns(self):
        lab = canon_labeling((1, 2), (2, 1))
        assert lab == (3, 4, 1, 2)

    def test_canon_labeling_is_bijection(self):
        # the invariant that lets canon_rows build its labelings unchecked:
        # column j takes the label block (sigma(j)-1)*m + 1 .. sigma(j)*m
        for m in range(1, 4):
            for w in (tuple(range(1, m + 1)), tuple(range(m, 0, -1))):
                for n in range(1, 4):
                    for sigma in permutations(range(1, n + 1)):
                        lab = canon_labeling(w, sigma)
                        assert sorted(lab) == list(range(1, m * n + 1))
                        # (row, j) sits at index row + (j-1)*m
                        assert all(lab[row + (j - 1) * m] == w[row] + (sigma[j - 1] - 1) * m
                                   for row in range(m) for j in range(1, n + 1))

    def test_checked_labeling_fig2(self):
        lab = checked_labeling((1, 2), 3)
        assert lab == (1, 2, 3, 4, 5, 6, 7, 8, 9)

    def test_checked_labeling_single_column(self):
        lab = checked_labeling((1, 2, 3), 1)
        assert lab[-1] == 4

    def test_top_label_order_does_not_change_hstar(self):
        # any assignment of the large labels to the top antichain gives the
        # same descent polynomial
        p = checked_product(chain(2), 3)
        base = checked_labeling((1, 2), 3)
        polys = set()
        for perm in permutations((7, 8, 9)):
            lab = base[:6] + perm
            polys.add(hstar(p, lab))
        assert len(polys) == 1

    def test_labeling_validation(self):
        # labels are checked where a poset file supplies them
        for labels, match in (
            ("[1, 1, 2]", r"labeling \(1, 1, 2\) is not a bijection onto 1..3"),
            ("[0, 1, 2]", "not a bijection"),
            ("[1, 2, 4]", "not a bijection"),
            ('[1, "a", 3]', '"labels" must be integers'),
            ("[true, 2, 3]", '"labels" must be integers'),
            ("[1.0, 2, 3]", '"labels" must be integers'),
            ("[1, 2]", "one value per element"),
            ('"123"', "one value per element"),
        ):
            with pytest.raises(PosetFormatError, match=match):
                poset_from_json(f'{{"elements": 3, "covers": [], "labels": {labels}}}')


class TestRemoveCovers:
    def test_empty_removal(self):
        p = product_with_chain(chain(2), 2)
        assert remove_intercopy_covers(p, 2, []) == p

    def test_single_removal(self):
        p = product_with_chain(chain(2), 2)
        q = remove_intercopy_covers(p, 2, [(2, 1)])
        assert len(q.covers) == 3
        assert (1, 3) not in q.covers

    def test_no_transitive_reclosure(self):
        p = product_with_chain(chain(2), 2)
        q = remove_intercopy_covers(p, 2, [(2, 1)])
        assert not q.less(1, 3)

    def test_unknown_edge(self):
        p = product_with_chain(chain(2), 2)
        with pytest.raises(PosetFormatError, match="unknown"):
            remove_intercopy_covers(p, 2, [(1, 2)])


class TestGraded:
    def test_chains_graded(self):
        for m in (1, 2, 5):
            assert is_graded(chain(m))

    def test_grid_graded(self):
        assert is_graded(product_with_chain(chain(2), 3))

    def test_ungraded(self):
        p = Poset(3, frozenset({(0, 2)}))
        assert not is_graded(p)


class TestChainDescentProfile:
    def test_natural_is_constant_zero(self):
        for p in (chain(3), vee_poset(), product_with_chain(chain(2), 2)):
            prof = chain_descent_profile(p, natural_labeling(p))
            assert prof.constant_k == 0

    def test_grid_with_reversed_columns(self):
        p = product_with_chain(chain(2), 3)
        lab = canon_labeling((1, 2), (3, 2, 1))
        assert chain_descent_profile(p, lab).constant_k == 2

    def test_grid_2x2_both_columns(self):
        p = product_with_chain(chain(2), 2)
        for sigma, k in [((2, 1), 1), ((1, 2), 0)]:
            lab = canon_labeling((1, 2), sigma)
            assert chain_descent_profile(p, lab).constant_k == k

    def test_nonconstant(self):
        prof = chain_descent_profile(vee_poset(), (2, 1, 3))
        assert prof.constant_k is None
        assert isinstance(prof, ChainDescentProfile)

    def test_column_labeling_adds_its_descents(self):
        # profile of (P x [n], w x sigma) is the profile of (P, w) plus
        # des(sigma): exhaustive over every poset on <= 3 elements, every
        # row labeling with a constant profile and every sigma up to n = 3
        from conftest import all_posets

        checked = 0
        for size in (1, 2, 3):
            for base in all_posets(size):
                for w in permutations(range(1, size + 1)):
                    k = chain_descent_profile(base, w).constant_k
                    if k is None:
                        continue
                    for n in (1, 2, 3):
                        prod = product_with_chain(base, n)
                        for sig in permutations(range(1, n + 1)):
                            des = sum(1 for a, b in zip(sig, sig[1:]) if a > b)
                            lab = canon_labeling(w, sig)
                            assert chain_descent_profile(prod, lab).constant_k == k + des
                            checked += 1
        assert checked > 300

    def test_constant_profile_shifts_hstar(self, rng):
        # k descents on every maximal chain: h*(P, w) = x^k h*(P, natural)
        constant = 0
        for _ in range(60):
            p = random_poset(rng)
            w = random_labeling(rng, p.element_count)
            k = chain_descent_profile(p, w).constant_k
            if k is not None:
                assert hstar(p, w) == hstar(p, natural_labeling(p)).shift(k)
                constant += 1
        assert constant >= 10


class TestRho:
    def test_minimal_is_zero(self):
        p = checked_product(chain(2), 2)
        assert rho_parities(p)[0] == 0

    def test_cover_of_minimal_is_one(self):
        p = checked_product(chain(2), 2)
        assert rho_parities(p)[1] == 1

    def test_tops_of_2x2(self):
        p = checked_product(chain(2), 2)
        assert rho_parities(p)[4:] == (1, 1)

    def test_not_graded(self):
        with pytest.raises(ValueError, match="graded"):
            rho_parities(Poset(3, frozenset({(0, 2)})))


class TestJson:
    def test_round_trip(self):
        p = chain(3)
        text = poset_to_json(p)
        q, lab = poset_from_json(text)
        assert q == p and lab is None
        assert poset_to_json(q) == text

    def test_labels_round_trip(self):
        p = product_with_chain(chain(2), 2)
        lab = canon_labeling((1, 2), (2, 1))
        q, lab2 = poset_from_json(poset_to_json(p, lab))
        assert (q, lab2) == (p, lab)

    def test_cycle_rejected(self):
        with pytest.raises(PosetFormatError, match="cyclic"):
            poset_from_json('{"elements": 2, "covers": [[0, 1], [1, 0]]}')

    def test_repair_flag(self):
        text = '{"elements": 3, "covers": [[0, 1], [1, 2], [0, 2]]}'
        with pytest.raises(PosetFormatError, match="redundant"):
            poset_from_json(text)
        p, _ = poset_from_json(text, repair=True)
        assert p == chain(3)

    def test_schema_errors(self):
        for text in ("[]", '{"elements": 2}', '{"elements": -1, "covers": []}',
                     '{"elements": 2, "covers": [[0]]}'):
            with pytest.raises(PosetFormatError):
                poset_from_json(text)


def test_enumeration_respects_covers(rng):
    for _ in range(25):
        p = random_poset(rng)
        pos = {}
        for ext in enumerate_linear_extensions(p):
            pos = {v: i for i, v in enumerate(ext)}
            assert all(pos[a] < pos[b] for a, b in p.covers)
