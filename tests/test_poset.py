import heapq
import time
import tracemalloc
from itertools import permutations

import pytest

from conftest import (
    all_posets, implied_relations, less, random_labeling, random_poset, vee_poset, wedge_poset,
)

from canonlab import kernel
from canonlab.errors import PosetFormatError, SizeCapError
from canonlab.linext import enumerate_linear_extensions
from canonlab.polys import hstar
from canonlab.poset import (
    MAX_ELEMENTS,
    _topological_order,
    Poset,
    canon_labeling,
    chain,
    chain_descents,
    checked_labeling,
    checked_product,
    natural_labeling,
    poset_from_json,
    poset_to_json,
    product_with_chain,
    rho_parities,
    transitive_reduction,
)
from canonlab.verify import antichain


def is_graded(p):
    """Whether every maximal chain of ``p`` has the same length: the case
    that ``rho_parities`` accepts."""
    try:
        rho_parities(p)
    except ValueError:
        return False
    return True


class TestConstruction:
    def test_chain(self):
        p = chain(3)
        assert p.covers == frozenset({(0, 1), (1, 2)})
        assert chain(1).covers == frozenset()
        assert kernel.count_extensions(chain(2)) == 1

    def test_antichain(self):
        assert antichain(1) == chain(1)
        p = antichain(3)
        assert not p.covers
        assert kernel.count_extensions(p) == 6

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

    def test_topological_order_is_lexicographic(self, rng):
        # the least ready vertex, read from a bitmask, against a heap of the
        # ready vertices on seeded random digraphs: the same order on a DAG,
        # and the same stop on a digraph with a cycle a -> b -> a
        def by_heap(n, succ):
            indeg = [0] * n
            for lst in succ:
                for w in lst:
                    indeg[w] += 1
            ready = [v for v in range(n) if not indeg[v]]
            heapq.heapify(ready)
            order = []
            while ready:
                v = heapq.heappop(ready)
                order.append(v)
                for w in succ[v]:
                    indeg[w] -= 1
                    if not indeg[w]:
                        heapq.heappush(ready, w)
            return order

        for _ in range(300):
            n = rng.randint(2, 40)
            rank = rng.sample(range(n), n)  # every arc climbs this order
            arcs = [{w for w in range(n) if rank[v] < rank[w] and rng.random() < 0.15}
                    for v in range(n)]
            dag = [sorted(s) for s in arcs]
            assert _topological_order(n, dag) == by_heap(n, dag)
            assert len(by_heap(n, dag)) == n
            a, b = sorted(rng.sample(range(n), 2), key=rank.__getitem__)
            cyclic = [sorted(s | {b} if v == a else s | {a} if v == b else s)
                      for v, s in enumerate(arcs)]
            order = _topological_order(n, cyclic)
            assert order == by_heap(n, cyclic) and a not in order and b not in order

    def test_rejects_redundant_cover(self):
        with pytest.raises(PosetFormatError, match="redundant"):
            Poset(3, frozenset({(0, 1), (1, 2), (0, 2)}))

    def test_redundancy_matches_a_search_oracle(self, rng):
        # every poset on up to 4 elements as its covers, its full order and
        # the order less one relation, then seeded random acyclic relation
        # sets on up to 9 elements: a relation is implied exactly when a
        # breadth-first search reaches its upper end through another one
        def check(n, relations):
            implied = implied_relations(relations)
            assert transitive_reduction(n, relations) == relations - implied
            first = next((r for r in relations if r in implied), None)
            if first is None:
                assert Poset(n, relations).covers == relations
                return
            with pytest.raises(PosetFormatError) as info:
                Poset(n, relations)
            assert str(info.value) == f"cover {first} is redundant (implied by transitivity)"

        for n in range(5):
            for p in all_posets(n):
                order = frozenset((a, b) for a in range(n) for b in range(n) if less(p, a, b))
                for relations in (p.covers, order, *(order - {r} for r in order)):
                    check(n, relations)
        for _ in range(2000):
            n = rng.randint(1, 9)
            rank = rng.sample(range(n), n)  # every relation climbs this order
            density = rng.random()
            check(n, frozenset((a, b) for a in range(n) for b in range(n)
                               if rank[a] < rank[b] and rng.random() < density))

    def test_dense_covers_validate_in_one_pass(self):
        # one reach table decides every cover, with no scan per cover of
        # its lower end's other covers: K(500, 500) builds in well under 3 s
        k = 500
        covers = [(a, k + b) for a in range(k) for b in range(k)]
        start = time.perf_counter()
        assert len(Poset(2 * k, covers).covers) == k * k
        assert time.perf_counter() - start < 3

    def test_dense_relations_reduce_in_one_pass(self):
        # the complete 3-layer relation set, 300 per layer, reduces to its
        # 180,000 covers in well under 3 s
        k = 300
        layers = ((0, 1), (1, 2), (0, 2))
        relations = [(i * k + a, j * k + b) for i, j in layers for a in range(k) for b in range(k)]
        start = time.perf_counter()
        assert len(transitive_reduction(3 * k, relations)) == 2 * k * k
        assert time.perf_counter() - start < 3

    def test_closure_is_small(self):
        # up-sets are bitmasks: the 2000-chain's closure holds 2 million
        # relations in a few hundred kilobytes, not a set per element
        tracemalloc.start()
        try:
            chain(2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000

    def test_rejects_out_of_range(self):
        with pytest.raises(PosetFormatError, match="out of range"):
            Poset(2, frozenset({(0, 5)}))
        with pytest.raises(PosetFormatError, match="self-loop"):
            Poset(2, frozenset({(1, 1)}))

    def test_reduction_checks_relations_as_construction_does(self):
        # one relation check, naming a pair a relation or a cover
        for pairs, problem in (([(0, 5)], "(0, 5) out of range for 3 elements"),
                               ([(-1, 0)], "(-1, 0) out of range for 3 elements"),
                               ([(0, 1), (1, 1)], "(1, 1) is a self-loop")):
            for build, noun in ((transitive_reduction, "relation"), (Poset, "cover")):
                with pytest.raises(PosetFormatError) as info:
                    build(3, pairs)
                assert str(info.value) == f"{noun} {problem}"
        for build, what in ((transitive_reduction, "relation set"), (Poset, "cover relation")):
            with pytest.raises(PosetFormatError) as info:
                build(3, [(0, 1), (1, 0)])
            assert str(info.value) == f"{what} is cyclic: [0, 1, 0]"
        # and the same count check, so a negative count is refused by both
        for build in (transitive_reduction, Poset):
            with pytest.raises(PosetFormatError) as info:
                build(-1, [])
            assert str(info.value) == "element_count must be non-negative"


class TestElementBound:
    def test_bound_is_the_root_of_the_kernel_work_bound(self):
        # a larger poset has at least |P| transitions, so the kernel would
        # refuse it anyway
        assert MAX_ELEMENTS**2 <= kernel.MAX_WORK < (MAX_ELEMENTS + 1) ** 2

    def test_refused_before_covers_are_read(self):
        def covers():
            raise AssertionError("the covers were read")
            yield

        with pytest.raises(SizeCapError, match=f"exceeds the bound {MAX_ELEMENTS}"):
            Poset(MAX_ELEMENTS + 1, covers())
        with pytest.raises(SizeCapError):
            transitive_reduction(MAX_ELEMENTS + 1, covers())
        # a file's element count is checked before its covers' shape
        with pytest.raises(SizeCapError, match=f"exceeds the bound {MAX_ELEMENTS}"):
            poset_from_json(f'{{"elements": {MAX_ELEMENTS + 1}, "covers": [[0]]}}')
        assert chain(MAX_ELEMENTS).element_count == MAX_ELEMENTS

    def test_builders_refuse_one_element_past_the_bound(self):
        past = MAX_ELEMENTS + 1
        for build in (lambda: chain(past), lambda: antichain(past),
                      lambda: product_with_chain(chain(2), past // 2 + 1),
                      lambda: checked_product(chain(2), past // 3 + 1)):
            with pytest.raises(SizeCapError, match=f"exceeds the bound {MAX_ELEMENTS}"):
                build()


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
        assert kernel.count_extensions(p) == 2

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
                for p in (product_with_chain(base, n), checked_product(base, n)):
                    size = p.element_count
                    assert transitive_reduction(size, p.covers) == p.covers
                    # the whole order reduces to the same covers
                    order = [(a, b) for a in range(size) for b in range(size) if less(p, a, b)]
                    assert transitive_reduction(size, order) == p.covers

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
        # maximal chains run bottom row, top row, across, then a new top:
        # under a labeling that falls on every cover each has 3 descents
        falling = tuple(p.element_count + 1 - v for v in natural_labeling(p))
        assert chain_descents(p, falling) == 3

    def test_chain_statistics_of_a_long_chain(self):
        # one pass over the topological order, so no recursion limit
        p = chain(1100)
        assert is_graded(p)
        assert rho_parities(p) == tuple(v % 2 for v in range(1100))
        assert chain_descents(p, natural_labeling(p)) == 0
        assert chain_descents(p, tuple(range(1100, 0, -1))) == 1099


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
        # the invariant that lets class_rows build its labelings unchecked:
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
    # bit x*(n-1) + j-1 of the mask removes the cover (x, j) < (x, j+1)

    def test_empty_removal(self):
        assert product_with_chain(chain(2), 2, 0) == product_with_chain(chain(2), 2)

    def test_single_removal(self):
        q = product_with_chain(chain(2), 2, 0b10)  # (1, 1) < (1, 2)
        assert len(q.covers) == 3
        assert (1, 3) not in q.covers

    def test_no_transitive_reclosure(self):
        q = product_with_chain(chain(2), 2, 0b10)
        assert not less(q, 1, 3)

    def test_every_mask_removes_exactly_its_covers(self):
        for base in (chain(1), chain(2), chain(3), vee_poset(), wedge_poset(), antichain(2)):
            m = base.element_count
            for n in (1, 2, 3):
                full = product_with_chain(base, n)
                tops = {(x + (n - 1) * m, m * n + t)
                        for t in range(n) for x in base.maximal_elements()}
                for mask in range(1 << m * (n - 1)):
                    removed = {(x + (j - 1) * m, x + j * m)
                               for x in range(m) for j in range(1, n)
                               if mask >> x * (n - 1) + j - 1 & 1}
                    assert removed <= full.covers
                    assert product_with_chain(base, n, mask).covers == full.covers - removed
                    checked = checked_product(base, n, mask)
                    assert checked.element_count == (m + 1) * n
                    assert checked.covers == (full.covers - removed) | tops

    def test_mask_out_of_range(self):
        for n, mask in ((1, 1), (2, 4), (3, 16), (2, -1)):
            for build in (product_with_chain, checked_product):
                with pytest.raises(ValueError, match="mask"):
                    build(chain(2), n, mask)


class TestGraded:
    def test_chains_graded(self):
        for m in (1, 2, 5):
            assert is_graded(chain(m))

    def test_grid_graded(self):
        assert is_graded(product_with_chain(chain(2), 3))

    def test_ungraded(self):
        p = Poset(3, frozenset({(0, 2)}))
        assert not is_graded(p)

    def test_empty_poset(self):
        # no maximal chain: graded, with no constant descent count
        p = Poset(0, frozenset())
        assert is_graded(p) and rho_parities(p) == ()
        assert chain_descents(p, ()) is None


class TestChainDescentProfile:
    def test_natural_is_constant_zero(self):
        for p in (chain(3), vee_poset(), product_with_chain(chain(2), 2)):
            assert chain_descents(p, natural_labeling(p)) == 0

    def test_grid_with_reversed_columns(self):
        p = product_with_chain(chain(2), 3)
        lab = canon_labeling((1, 2), (3, 2, 1))
        assert chain_descents(p, lab) == 2

    def test_grid_2x2_both_columns(self):
        p = product_with_chain(chain(2), 2)
        for sigma, k in [((2, 1), 1), ((1, 2), 0)]:
            lab = canon_labeling((1, 2), sigma)
            assert chain_descents(p, lab) == k

    def test_nonconstant(self):
        assert chain_descents(vee_poset(), (2, 1, 3)) is None

    def test_matches_listed_chains(self):
        # the one-pass DP against the definition: list every maximal chain
        # of every poset on <= 3 elements, under every labeling
        from conftest import all_posets

        def chains(p, path):
            succ = p.successors(path[-1])
            return [c for w in succ for c in chains(p, path + (w,))] if succ else [path]

        for size in (1, 2, 3):
            for p in all_posets(size):
                listed = [c for v in p.minimal_elements() for c in chains(p, (v,))]
                assert is_graded(p) == (len({len(c) for c in listed}) == 1)
                for w in permutations(range(1, size + 1)):
                    counts = {sum(w[a] > w[b] for a, b in zip(c, c[1:])) for c in listed}
                    assert chain_descents(p, w) == (counts.pop() if len(counts) == 1 else None)

    def test_column_labeling_adds_its_descents(self):
        # profile of (P x [n], w x sigma) is the profile of (P, w) plus
        # des(sigma): exhaustive over every poset on <= 3 elements, every
        # row labeling with a constant profile and every sigma up to n = 3
        from conftest import all_posets

        checked = 0
        for size in (1, 2, 3):
            for base in all_posets(size):
                for w in permutations(range(1, size + 1)):
                    k = chain_descents(base, w)
                    if k is None:
                        continue
                    for n in (1, 2, 3):
                        prod = product_with_chain(base, n)
                        for sig in permutations(range(1, n + 1)):
                            des = sum(1 for a, b in zip(sig, sig[1:]) if a > b)
                            lab = canon_labeling(w, sig)
                            assert chain_descents(prod, lab) == k + des
                            checked += 1
        assert checked > 300

    def test_constant_profile_shifts_hstar(self, rng):
        # k descents on every maximal chain: h*(P, w) = x^k h*(P, natural)
        constant = 0
        for _ in range(60):
            p = random_poset(rng)
            w = random_labeling(rng, p.element_count)
            k = chain_descents(p, w)
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
