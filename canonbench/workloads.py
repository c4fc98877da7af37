"""The benchmark's workloads, the seeded poset generator and the oracle that
checks the outputs of the generated workload.

Counting linear extensions is #P-complete, so cost depends on input shape:
how many labelings share one poset, how many posets there are, and how wide
each poset is.  Each workload fixes one of those shapes, so a kernel that
wins on one shape and loses on another shows both.  On 2 CPUs with the
pure-Python kernel backend, one pass takes about the time below; the
shares are of the traced in-process time:

* canon-lanes, 0.7 s: two commands, 98% in the kernel's lane loop;
* sweep-subsets, 0.5 s: one sweep, 92% in 64 kernel calls of 24 lanes;
* gamma-classes, 1.2 s: one command, 6% in the kernel, about 60% in
  canon's rho filter and class words and 35% in the extension generator;
* poset-files, 3.4 s: six commands on three generated posets, the only
  calls of ``kernel.count_extensions`` and ``poset_from_json``.

Left out on purpose:

* ``poly canon --m 2 --n 7`` (5040 labelings of a 14-element grid) and
  ``sweep gamma --m 4 --n 3`` (256 subposets): each is one command of 2.3 s
  and 10 s, so a run held a few timings of it, and the speed of this
  shared host drifts by 10-25% over such spans.  Their medians spread
  17% over five runs, and 9% and 26% over two sets of ten runs.  The
  commands above keep the shapes (one poset under many labelings; many
  subposets under few) in commands short enough to time many times a
  run; scaled by the speed probe in ``run.py``, their walls spread 4-8%
  over ten runs.  ``canon --m 2 --n 6`` is the ROADMAP's
  known many-lane weak case of the lane-packed DP.
* ``sweep gamma ... --jobs 2``: it spread 21% over 4 runs on two shared
  cores, against 5% for ``--jobs 1``, so it cannot carry a tight bound.
* ``sweep gamma --m 3 --n 3`` and ``--m 6 --n 2``: as short as
  ``--m 2 --n 4``, but only 86% and 84% of their time is in the kernel,
  the rest in per-subset building.
* ``verify all``: its in-process body (0.12 s) is shorter than interpreter
  start, which ``setup_s`` already measures.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass


# Why each workload exists; BENCHMARK.json carries the same lines.
WORKLOADS = {
    "canon-lanes": "a 12-element grid under all 720 canon labelings and a 15-element one "
    "under 120: the kernel's lane loop, the weak case of a lane-packed DP",
    "sweep-subsets": "64 different 8-element subposets with 24 labelings each: many "
    "kernel calls on few lanes, plus building, gamma peeling and rows",
    "gamma-classes": "gamma classes of (2,6): mostly the extension generator and the "
    "rho filter, so a kernel change should show no change here",
    "poset-files": "seeded width-3 posets loaded from JSON, one lane each: the only "
    "workload on the counting kernel and the JSON loader, and the only seeded one",
}

# Each command runs as ``python -m canonlab <argv>``.
FIXED_COMMANDS = {
    "canon-lanes": [
        ["poly", "canon", "--m", "2", "--n", "6", "--force-cap", "12", "--format", "json"],
        ["poly", "canon", "--m", "3", "--n", "5", "--force-cap", "15", "--format", "json"],
    ],
    "sweep-subsets": [
        ["sweep", "gamma", "--m", "2", "--n", "4", "--jobs", "1", "--format", "json"],
    ],
    "gamma-classes": [
        ["gamma", "--m", "2", "--n", "6", "--format", "json"],
    ],
}

# ---------------------------------------------------------------------------
# poset-files: generator and oracle

# Width 3: at width 4 (16 elements) one poset ran past 120 s.
CHAINS = 3
CHAIN_LENGTH = 5
POSET_COUNT = 3
# Cross covers per poset, and the windows that e(P) and the number of
# extension prefixes must fall in.  The kernels' work grows with the
# prefixes and lext_per_s with e(P), so the windows keep both nearly the
# same for every seed: the seed changes which posets run, not how much
# work they are.
CROSS_COVERS = (2, 4)
EXTENSION_WINDOW = (140_000, 160_000)
PREFIX_WINDOW = (450_000, 500_000)
MAX_TRIES = 10_000


@dataclass(frozen=True)
class GeneratedPoset:
    elements: int
    covers: tuple[tuple[int, int], ...]
    labels: tuple[int, ...]

    def to_json(self) -> str:
        return json.dumps({
            "elements": self.elements,
            "covers": [list(c) for c in self.covers],
            "labels": list(self.labels),
        })


def _closure(n: int, relations) -> list[set[int]]:
    """above[v]: every element strictly above v (relations must be acyclic)."""
    succ = [set() for _ in range(n)]
    for a, b in relations:
        succ[a].add(b)
    above: list[set[int]] = [set() for _ in range(n)]

    def visit(v):
        if not above[v] and succ[v]:
            for w in succ[v]:
                above[v].add(w)
                above[v] |= visit(w)
        return above[v]

    for v in range(n):
        visit(v)
    return above


def _random_poset(rng: random.Random) -> GeneratedPoset:
    """CHAINS chains of CHAIN_LENGTH with a few random cross covers, each
    from one level to the same or the next level of another chain, on a
    shuffled ground set, labeled by a random linear extension."""
    n = CHAINS * CHAIN_LENGTH
    relations = {
        (c * CHAIN_LENGTH + i, c * CHAIN_LENGTH + i + 1)
        for c in range(CHAINS) for i in range(CHAIN_LENGTH - 1)
    }
    for _ in range(rng.randint(*CROSS_COVERS)):
        while True:
            ca, cb = rng.sample(range(CHAINS), 2)
            level = rng.randrange(CHAIN_LENGTH)
            up = rng.randint(0, 1)
            if level + up == CHAIN_LENGTH:
                continue
            a = ca * CHAIN_LENGTH + level
            b = cb * CHAIN_LENGTH + level + up
            if a not in _closure(n, relations)[b]:  # keep it acyclic
                relations.add((a, b))
                break
    above = _closure(n, relations)
    covers = {
        (a, b) for a in range(n) for b in above[a]
        if not any(b in above[c] for c in above[a])
    }
    perm = list(range(n))
    rng.shuffle(perm)
    covers = sorted((perm[a], perm[b]) for a, b in covers)
    preds = [{a for a, b in covers if b == v} for v in range(n)]
    placed: list[int] = []
    while len(placed) < n:
        ready = [v for v in range(n) if v not in placed and preds[v] <= set(placed)]
        placed.append(rng.choice(ready))
    labels = [0] * n
    for pos, v in enumerate(placed, start=1):
        labels[v] = pos
    return GeneratedPoset(n, tuple(covers), tuple(labels))


def extension_stats(p: GeneratedPoset) -> tuple[list[int], int]:
    """The descent histogram over all linear extensions of the labeled
    poset, and the number of nonempty extension prefixes, by dynamic
    programming over (order ideal, last element).

    The prefixes are the nodes of the tree a backtracking enumerator walks.
    Independent of the program's kernels: this is the oracle the outputs of
    the generated workload are checked against.
    """
    n = p.elements
    pred_mask = [0] * n
    for a, b in p.covers:
        pred_mask[b] |= 1 << a
    layer = {(0, -1): [1]}
    prefixes = 0
    for _ in range(n):
        nxt: dict[tuple[int, int], list[int]] = {}
        for (mask, last), hist in layer.items():
            for v in range(n):
                if mask >> v & 1 or pred_mask[v] & ~mask:
                    continue
                step = 1 if last >= 0 and p.labels[v] < p.labels[last] else 0
                acc = nxt.setdefault((mask | 1 << v, v), [])
                if len(acc) < len(hist) + step:
                    acc.extend([0] * (len(hist) + step - len(acc)))
                for d, c in enumerate(hist):
                    acc[d + step] += c
        layer = nxt
        prefixes += sum(sum(hist) for hist in layer.values())
    total: list[int] = []
    for hist in layer.values():
        if len(total) < len(hist):
            total.extend([0] * (len(hist) - len(total)))
        for d, c in enumerate(hist):
            total[d] += c
    while total and total[-1] == 0:
        total.pop()
    return total, prefixes


def generate_posets(seed: int) -> list[tuple[GeneratedPoset, list[int]]]:
    """POSET_COUNT posets inside EXTENSION_WINDOW and PREFIX_WINDOW, each
    with its oracle descent histogram.  The same seed gives the same
    posets."""
    rng = random.Random(seed)
    out = []
    for _ in range(MAX_TRIES):
        p = _random_poset(rng)
        hist, prefixes = extension_stats(p)
        if (EXTENSION_WINDOW[0] <= sum(hist) <= EXTENSION_WINDOW[1]
                and PREFIX_WINDOW[0] <= prefixes <= PREFIX_WINDOW[1]):
            out.append((p, hist))
            if len(out) == POSET_COUNT:
                return out
    raise RuntimeError(f"seed {seed}: no {POSET_COUNT} posets in the window")
