"""The ``sweep`` command: the edge-subset sweep of gamma-positivity over
amphibian subposets (Thm. 4.3), and the table of subposet sums it reads.

Only ``sweep`` and ``verify`` load this module (``cli`` imports it on
first use), so no other command compiles it.  The subposet sums are one
table, ``dissonant_polynomials``, one sum per orbit of masks
(``_orbit_key``) over worker processes, which the sweep and verify's
degree, palindromy and fixed-row checks all read.
"""

from __future__ import annotations

import argparse
import json
import os
from functools import partial
from typing import Iterable, NamedTuple, Optional, Sequence

from canonlab.canon import AmphibianSpec, dissonant_polynomial
from canonlab.cli import _print_csv
from canonlab.errors import SizeCapError
from canonlab.polys import IntPolynomial, gamma_expansion, is_unimodal, poly_to_payload
from canonlab.poset import poset_to_json

MAX_SUBPOSETS = 1024


def subposet_masks(m: int, n: int) -> range:
    """The edge masks of the m x n grid's subposets, refused first past
    ``MAX_SUBPOSETS``."""
    if m < 1 or n < 1:
        raise ValueError("chain factor must have size >= 1")
    covers = m * (n - 1)
    if covers >= MAX_SUBPOSETS.bit_length():  # before the shift below
        raise SizeCapError(f"2^{covers} subposets exceed the bound {MAX_SUBPOSETS}")
    return range(1 << covers)


def dissonant_polynomials(m: int, n: int, w: Sequence[int], masks: Iterable[int],
                          jobs: int = 1) -> dict[int, IntPolynomial]:
    """The dissonant polynomial under ``w`` of each of ``masks``, summed
    once per orbit under ``_orbit_key``'s maps, for its first mask, over
    ``jobs`` worker processes.  The maps keep the polynomial when
    w(m+1-r) = m+1-w(r) for every row r, as the natural and reversed w have."""
    keys = {mask: _orbit_key(m, n, mask) for mask in masks}
    firsts: dict[tuple, int] = {}
    for mask, key in keys.items():
        firsts.setdefault(key, mask)
    specs = [AmphibianSpec(m, n, mask) for mask in firsts.values()]
    polys = dict(zip(firsts, parallel_map(partial(dissonant_polynomial, w=w), specs, jobs)))
    return {mask: polys[key] for mask, key in keys.items()}


class SweepRow(NamedTuple):
    mask: int
    polynomial: IntPolynomial
    degree: int
    palindromic: bool
    gamma: Optional[tuple[int, ...]]
    gamma_positive: bool
    unimodal: bool
    mode: str


def _sweep_row(spec: AmphibianSpec, poly: IntPolynomial) -> SweepRow:
    """The row of ``spec`` with polynomial ``poly``; its gamma expansion
    exists exactly when ``poly`` is palindromic over [0, m(n-1)]."""
    gamma = gamma_expansion(poly, spec.m * (spec.n - 1))
    return SweepRow(spec.mask, poly, poly.degree, gamma is not None, gamma,
                    gamma is not None and min(gamma) >= 0, is_unimodal(poly), spec.mode())


def _column_blocks(m: int, n: int, mask: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The subposet of ``mask`` as its blocks of columns joined by kept
    covers, sorted: each block lists, gap by gap, the removed bit of
    every row."""
    k = n - 1
    blocks, block = [], []
    for j in range(k):
        removed = tuple(mask >> x * k + j & 1 for x in range(m))
        if all(removed):  # no cover joins columns j+1 and j+2
            blocks.append(tuple(block))
            block = []
        else:
            block.append(removed)
    blocks.append(tuple(block))
    return tuple(sorted(blocks))


def _orbit_key(m: int, n: int, mask: int) -> tuple:
    """A key shared by exactly the masks one gets from ``mask`` by two
    maps, each of which keeps the summed polynomial:

    * permuting the blocks of columns joined by kept covers: a
      row-preserving isomorphism, and sigma -> sigma o tau^-1 is a
      bijection of the column labelings, under any row labeling w;
    * the dual reflection (row, j) -> (m+1-row, n-j), which reverses the
      m(n-1) mask bits: reversing an extension and complementing its
      labels keeps every descent, and the complement of w x sigma, moved by
      the reflection, is w x sigma' with sigma'(j) = n+1-sigma(n+1-j) when
      w(m+1-r) = m+1-w(r) for every row r, as for the natural and reversed w.
    """
    mirror = int(format(mask, f"0{m * (n - 1)}b")[::-1], 2)
    return min(_column_blocks(m, n, mask), _column_blocks(m, n, mirror))


def conjecture_sweep(m: int, n: int, jobs: int = 1) -> tuple[SweepRow, ...]:
    """One gamma row per subset of removable inter-copy edges, in mask
    order, from its orbit's polynomial under the natural row labeling."""
    polys = dissonant_polynomials(m, n, tuple(range(1, m + 1)), subposet_masks(m, n), jobs)
    return tuple(_sweep_row(AmphibianSpec(m, n, mask), poly) for mask, poly in polys.items())


def parallel_map(fn, items, jobs: int = 1):
    """Order-preserving map, fanned out over processes when jobs > 1.

    Results are combined in input order, so output is deterministic
    regardless of scheduling.  The pool may start all its workers at
    once, so it has at most one per item and per CPU, whatever ``jobs``.
    """
    items = list(items)
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(x) for x in items]
    # imported only here: loading it adds tens of ms to every interpreter start
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(items) // (workers * 4))
        return list(pool.map(fn, items, chunksize=chunk))


def _certificate(m: int, n: int, row: SweepRow) -> dict:
    """The counterexample a sweep row that is not gamma-positive prints:
    its subposet, polynomial and the coordinate that fails."""
    spec = AmphibianSpec(m, n, row.mask)
    if row.gamma is None:
        violation = "not palindromic over the center window"
    else:
        violation = f"gamma-negative at index {next(i for i, g in enumerate(row.gamma) if g < 0)}"
    return {
        "spec": {"m": m, "n": n, "removed": [list(e) for e in spec.removed]},
        "poset": poset_to_json(spec.poset()),
        "polynomial": poly_to_payload(row.polynomial),
        "gamma": list(row.gamma or ()),
        "violation": violation,
    }


def run(cfg: argparse.Namespace) -> int:
    """Sweep the ``--m`` x ``--n`` grid's subposets and print their rows,
    then a certificate per violator; returns the exit status, 1 when any
    row is not gamma-positive."""
    rows = conjecture_sweep(cfg.m, cfg.n, jobs=cfg.jobs)
    violations = [_certificate(cfg.m, cfg.n, r) for r in rows if not r.gamma_positive]
    if cfg.format == "json":
        payload = {
            "m": cfg.m,
            "n": cfg.n,
            "rows": [
                {
                    "removed_edge_mask": r.mask,
                    "degree": r.degree,
                    "palindromic": r.palindromic,
                    "gamma": list(r.gamma) if r.gamma is not None else None,
                    "gamma_positive": r.gamma_positive,
                    "unimodal": r.unimodal,
                    "mode": r.mode,
                    "polynomial": poly_to_payload(r.polynomial),
                }
                for r in rows
            ],
            "violations": violations,
        }
        print(json.dumps(payload))
    elif cfg.format == "csv":
        _print_csv(
            ["removed_edge_mask", "degree", "palindromic", "gamma", "gamma_positive", "unimodal", "mode"],
            (
                [
                    r.mask,
                    r.degree,
                    str(r.palindromic).lower(),
                    " ".join(str(g) for g in r.gamma) if r.gamma is not None else "",
                    str(r.gamma_positive).lower(),
                    str(r.unimodal).lower(),
                    r.mode,
                ]
                for r in rows
            ),
        )
    else:
        for r in rows:
            gamma = ",".join(str(g) for g in (r.gamma or ()))
            print(
                f"mask={r.mask} degree={r.degree} palindromic={str(r.palindromic).lower()} "
                f"gamma=({gamma}) gamma-positive: {str(r.gamma_positive).lower()} "
                f"unimodal={str(r.unimodal).lower()} mode={r.mode}"
            )
        print(
            f"{len(rows)} subposets swept, {len(violations)} gamma-negative"
        )
    for cert in violations:
        print(json.dumps(cert))
    return 1 if violations else 0
