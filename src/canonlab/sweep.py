"""The ``sweep`` command: the edge-subset sweep of gamma-positivity over
amphibian subposets (Thm. 4.3), and the orbits of masks it sums over.

Only ``sweep`` and ``verify`` load this module (``cli`` imports it on
first use), so no other command compiles it.  The sweep sums, and
verify's four subposet checks walk, once per orbit of masks
(``orbit_table``, over worker processes) under one bound (``subposet_masks``).
The grid's size rules and its row labels are ``poset``'s, so at n = 1,
where the subposet bound admits any m, the element bound refuses an m past
it before the labels are built.
"""

from __future__ import annotations

import os
from collections import namedtuple
from collections.abc import Callable, Iterable
from functools import partial
from types import SimpleNamespace

from canonlab.canon import AmphibianSpec, dissonant_polynomial
from canonlab.cli import _print_csv, _print_json
from canonlab.errors import SizeCapError
from canonlab.polys import IntPolynomial, gamma_expansion, is_unimodal, poly_to_payload
from canonlab.poset import _chain_gaps, _check_chain, _gap_bits, _row_labeling, poset_to_json

MAX_SUBPOSETS = 1024


def subposet_masks(m: int, n: int) -> range:
    """The edge masks of the m x n grid's subposets, refused past
    ``MAX_SUBPOSETS`` before any is listed; an m or n below 1 is refused
    first, as ``poset`` refuses it for every command."""
    _check_chain(m)
    covers = m * _chain_gaps(n)
    if covers >= MAX_SUBPOSETS.bit_length():  # before the shift below
        raise SizeCapError(f"2^{covers} subposets exceed the bound {MAX_SUBPOSETS}")
    return range(1 << covers)


class SweepRow(namedtuple("SweepRow", "mask polynomial degree palindromic gamma "
                                       "gamma_positive unimodal mode")):
    """A subposet's row: its mask, polynomial and degree, whether it is
    palindromic, its gamma vector (None when not palindromic), whether that
    is nonnegative, whether the polynomial is unimodal, and its mode."""

    __slots__ = ()


def _sweep_row(spec: AmphibianSpec, poly: IntPolynomial) -> SweepRow:
    """The row of ``spec`` with polynomial ``poly``; its gamma expansion
    exists exactly when ``poly`` is palindromic over [0, m(n-1)]."""
    gamma = gamma_expansion(poly, spec.m * (spec.n - 1))
    return SweepRow(spec.mask, poly, poly.degree, gamma is not None, gamma,
                    gamma is not None and min(gamma) >= 0, is_unimodal(poly), spec.mode())


def _column_blocks(gaps: Iterable[tuple[int, ...]]) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The subposet of the removed bits ``gaps`` (``poset._gap_bits``) as
    its blocks of columns joined by kept covers, sorted: each block lists,
    gap by gap, the removed bit of every row."""
    blocks, block = [], []
    for removed in gaps:
        if all(removed):  # no cover joins the columns on either side
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
      gaps and each gap's rows: reversing an extension and complementing
      its labels keeps every descent, and the complement of w x sigma, moved
      by the reflection, is w x sigma' with sigma'(j) = n+1-sigma(n+1-j) when
      w(m+1-r) = m+1-w(r) for every row r, as for the natural and reversed w.
    """
    gaps = list(_gap_bits(m, n, mask))
    return min(_column_blocks(gaps), _column_blocks(bits[::-1] for bits in reversed(gaps)))


def orbit_table(m: int, n: int, masks: Iterable[int], walk: Callable,
                jobs: int = 1) -> tuple[dict[int, int], dict[int, object]]:
    """Each of ``masks`` with the first of them in its orbit (``_orbit_key``),
    and each first with ``walk(m, n, first)`` over ``jobs`` processes, walked
    in descending order: the full mask, its own orbit's first, has the most
    transitions, so the kernel refuses it first."""
    keys: dict[tuple, int] = {}
    firsts = {mask: keys.setdefault(_orbit_key(m, n, mask), mask) for mask in masks}
    order = sorted(keys.values(), reverse=True)
    return firsts, dict(zip(order, parallel_map(partial(walk, m, n), order, jobs)))


def _natural_sum(m: int, n: int, mask: int) -> IntPolynomial:
    """The dissonant polynomial of ``mask``'s subposet under the natural rows."""
    return dissonant_polynomial(AmphibianSpec(m, n, mask), _row_labeling("natural", m))


def conjecture_sweep(m: int, n: int, jobs: int = 1) -> tuple[SweepRow, ...]:
    """One gamma row per subset of removable inter-copy edges, in mask order,
    from its orbit's polynomial under the natural row labeling, summed once
    per orbit (``orbit_table``), over ``jobs`` processes."""
    firsts, polys = orbit_table(m, n, subposet_masks(m, n), _natural_sum, jobs)
    return tuple(_sweep_row(AmphibianSpec(m, n, mask), polys[first])
                 for mask, first in firsts.items())


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


def _fields(r: SweepRow) -> dict:
    """The fields of a row that the json and the csv output name, in their order."""
    return {"removed_edge_mask": r.mask, "degree": r.degree, "palindromic": r.palindromic,
            "gamma": None if r.gamma is None else list(r.gamma),
            "gamma_positive": r.gamma_positive, "unimodal": r.unimodal, "mode": r.mode}


def _csv_cell(value) -> object:
    """A json field as a csv cell: a bool in lower case, a list space-separated."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, list):
        return " ".join(map(str, value))
    return "" if value is None else value


def run(cfg: SimpleNamespace) -> int:
    """Sweep the ``--m`` x ``--n`` grid's subposets and print their rows,
    then a certificate per violator; returns the exit status, 1 when any
    row is not gamma-positive."""
    rows = conjecture_sweep(cfg.m, cfg.n, jobs=cfg.jobs)
    violations = [_certificate(cfg.m, cfg.n, r) for r in rows if not r.gamma_positive]
    if cfg.format == "json":
        payload = {
            "m": cfg.m,
            "n": cfg.n,
            "rows": [dict(_fields(r), polynomial=poly_to_payload(r.polynomial)) for r in rows],
            "violations": violations,
        }
        _print_json(payload)
    elif cfg.format == "csv":
        table = [_fields(r) for r in rows]
        _print_csv(list(table[0]), ([*map(_csv_cell, fields.values())] for fields in table))
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
        _print_json(cert)
    return 1 if violations else 0
