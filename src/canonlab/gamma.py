"""The ``gamma`` command: the Cor. 5.1 interpretation of the canon
polynomial's gamma vector, counted and listed on checked-product
extensions.

Only ``gamma`` and ``verify`` load this module (``cli`` imports it on
first use), so no other command compiles it.  The extensions that
Cor. 5.1 counts come in two halves on the kernel's state graphs
(``rho_halves``), each counted with none listed and listed by
``rho_orders``.
"""

from __future__ import annotations

import argparse
import json
from itertools import product
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

from canonlab import kernel
from canonlab.canon import canon_polynomial_bruteforce
from canonlab.cli import MAX_LISTED
from canonlab.errors import CanonlabError, SizeCapError
from canonlab.polys import IntPolynomial, gamma_expansion
from canonlab.poset import Poset, chain, checked_product, product_with_chain, rho_parities


def rho_halves(m: int, n: int) -> tuple[tuple, tuple]:
    """The extensions of the checked product of ``chain(m)`` and [n] that
    Cor. 5.1 counts (``canonlab.verify._rho_drops``) as g + t: g a way of
    the grid [m]x[n] from (1, 1), the least key, so with no (double) fall
    at position 1, and t one of the n tops above (m, n), the grid's
    maximum, with g's falls (rho-descents) plus t's from (m, n) on.  A step
    into a top falls only from an odd (m, n), the grid's largest key, onto
    which no step falls, so the tops start at (m, n) as if it rose, and end
    with no fall onto an odd key (an odd last pair rises).  A half is (its
    ways counted by falls, (last, sources, key, rose, fell)): its kernel
    state graph, each state's key, and the ways to finish from state s
    reached by a rise, ``rose[s]``, or by a fall, ``fell[s]``, with no fall
    right after a fall, packed by their falls as the kernel packs them, in
    bins as wide as the e(P) that the graph's build counts: no pass counts.
    """
    pcheck = checked_product(chain(m), n)
    size = pcheck.element_count
    keys = [parity * size + v for v, parity in enumerate(rho_parities(pcheck))]
    return (_rho_half(product_with_chain(chain(m), n), keys[:-n], 0, True),
            _rho_half(Poset(n, ()), keys[-n:], keys[-n - 1], keys[-1] < size))


def _rho_half(p: Poset, keys: list[int], start: int, fall_ends: bool) -> tuple:
    last, sources, final, count = kernel._transitions(p)
    width = count.bit_length()
    key = [start, *(keys[u] for u in last)]
    rose, fell = [0] * len(key), [0] * len(key)
    for s in final:
        rose[s], fell[s] = 1, int(fall_ends)
    for dst in range(len(last), 0, -1):  # every state after the steps leaving it
        for src in sources[dst - 1]:
            if key[dst] < key[src]:
                rose[src] += fell[dst] << width
            else:
                rose[src] += rose[dst]
                fell[src] += rose[dst]
    counts = [rose[0] >> k * width & (1 << width) - 1 for k in range(p.element_count + 1)]
    return counts, (last, sources, key, rose, fell)


def _steps(graph: tuple) -> list[list[tuple[int, int, bool]]]:
    """Each state's steps (target, element, falls) that a way takes, by decreasing element."""
    last, sources, key, rose, fell = graph
    steps = [[] for _ in key]
    for dst in range(len(last), 0, -1):
        for src in sources[dst - 1]:
            drop = key[dst] < key[src]
            if (fell if drop else rose)[dst]:
                steps[src].append((dst, last[dst - 1], drop))
    return steps


def rho_orders(graph: tuple) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every way of a half's graph (``rho_halves``) with its falls, depth
    first and lexicographically, numbered as the half's poset is; a step
    is taken only when a way finishes from it, so no walk ends short."""
    steps = _steps(graph)
    todo = [(0, False, 0, ())]
    while todo:
        s, fell, falls, order = todo.pop()
        if not steps[s]:
            yield falls, order
        for t, v, drop in steps[s]:
            if not (drop and fell):
                todo.append((t, drop, falls + drop, order + (v,)))


class GammaInterpretation(NamedTuple):
    """Gamma coordinates of the canon polynomial next to the counts of
    filtered checked-product extensions (``rho_halves``).

    ``shift`` aligns the filtered rho-descent counts with the gamma
    indices; ``stated_shift`` is floor((m+n-1)/2).  When they differ, or
    no offset works, ``matches`` is False: the caller sees the value that
    holds instead of a silent pass.
    """

    m: int
    n: int
    gamma: tuple[int, ...]
    counts: tuple[int, ...]
    stated_shift: int
    shift: Optional[int]
    matches: bool


def gamma_interpretation(m: int, n: int) -> GammaInterpretation:
    """Count checked-product extensions with i+d rho-descents, no double
    rho-descents and an increasing final pair when both parities are odd,
    and compare their counts, the product of two halves' with none
    listed, against the gamma vector of the canon polynomial."""
    poly = canon_polynomial_bruteforce(chain(m), tuple(range(1, m + 1)), n)
    center = m * (n - 1)
    gamma = gamma_expansion(poly, center)
    if gamma is None:
        raise CanonlabError("canon polynomial is not palindromic over its center")
    (grid, _), (tops, _) = rho_halves(m, n)
    by_drops = IntPolynomial(grid) * IntPolynomial(tops)
    stated = (m + n - 1) // 2
    aligned = IntPolynomial(gamma).shift
    shift = next((s for s in (stated, *range(center + 1)) if by_drops == aligned(s)), None)
    base = stated if shift is None else shift
    counts = tuple(by_drops.coefficient(base + i) for i in range(len(gamma)))
    return GammaInterpretation(m, n, gamma, counts, stated, shift, shift == stated)


def gamma_class_words(gi: GammaInterpretation) -> tuple[tuple[str, ...], ...]:
    """The canon words of each gamma class i, the extensions g + t with
    shift + i rho-descents, sorted by their letters: g's columns looked up
    in the column values t lists, joined by "." from n = 10 on."""
    m = gi.m
    base = gi.stated_shift if gi.shift is None else gi.shift
    classes = [[] for _ in gi.gamma]
    (_, grid), (_, tops) = rho_halves(m, gi.n)
    columns, sigmas = {}, {}  # falls -> the half's ways
    for d, g in rho_orders(grid):
        columns.setdefault(d, []).append(itemgetter(*[v // m for v in g]))
    # letter k is the character chr(ord("0") + k): it sorts as k, and is k up to 9
    for d, t in rho_orders(tops):  # top j has column value j + 1
        sigmas.setdefault(d, []).append("".join(chr(ord("1") + j) for j in t))
    for (dg, cs), (dt, ss) in product(columns.items(), sigmas.items()):
        if 0 <= dg + dt - base < len(classes):
            classes[dg + dt - base] += ["".join(c(s)) for c in cs for s in ss]
    full = {ord("0") + k: f"{k}." for k in range(1, gi.n + 1)}
    spell = str if gi.n < 10 else lambda w: w.translate(full)[:-1]
    return tuple(tuple(map(spell, sorted(words))) for words in classes)


def run(cfg: argparse.Namespace) -> int:
    """Print the gamma interpretation of the ``--m`` x ``--n`` grid and its
    class words, refused first past ``MAX_LISTED`` letters; returns the
    exit status, 1 when the counts do not match at the stated shift."""
    gi = gamma_interpretation(cfg.m, cfg.n)
    if sum(gi.counts) * cfg.m * cfg.n > MAX_LISTED:
        raise SizeCapError(f"the {sum(gi.counts)} class words would print more than "
                           f"{MAX_LISTED} letters; pass a smaller --m or --n")
    words = gamma_class_words(gi)
    if cfg.format == "json":  # the fields, then the classes
        print(json.dumps(dict(gi._asdict(), classes=words)))
    else:
        print(f"gamma {list(gi.gamma)}")
        print(f"counts {list(gi.counts)} (shift {gi.shift}, stated {gi.stated_shift})")
        print(f"matches: {str(gi.matches).lower()}")
        for i, bucket in enumerate(words):
            print(f"gamma[{i}] classes: {' '.join(bucket)}")
    return 0 if gi.matches else 1
