#!/usr/bin/env python3
"""Record the reference outputs of the fixed workloads in reference.json.

Run from the root of a source checkout, at the commit whose outputs are
the reference:

    python3 canonbench/record_reference.py

For each command it stores the exit status, the SHA-256 of stdout and the
labeled linear extensions the output accounts for (e(P) x labelings).  That
count is read from the output and must equal the count the benchmark's own
oracle gives for the same posets, or nothing is written.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from itertools import product
from time import perf_counter

import run
import workloads


def _poly_sum(stdout: bytes) -> int:
    return sum(int(c) for c in json.loads(stdout)["coeffs"])


def _sweep_sum(stdout: bytes) -> int:
    rows = json.loads(stdout)["rows"]
    return sum(int(c) for row in rows for c in row["polynomial"]["coeffs"])


def _gamma_sum(stdout: bytes) -> int:
    # The canon polynomial is sum_i gamma_i x^i (1+x)^(d-2i) with
    # d = m(n-1), so its coefficient sum is sum_i gamma_i 2^(d-2i).
    payload = json.loads(stdout)
    d = payload["m"] * (payload["n"] - 1)
    return sum(g << (d - 2 * i) for i, g in enumerate(payload["gamma"]))


def _count(stdout: bytes) -> int:
    return int(stdout)


# Labeled linear extensions a command accounts for, read from its own
# stdout, by subcommand.
LEXT_FROM_OUTPUT = {
    "poly": _poly_sum,
    "sweep": _sweep_sum,
    "gamma": _gamma_sum,
    "extensions": _count,
}


def _grid(m: int, n: int, removed=()) -> workloads.GeneratedPoset:
    """[m] x [n] in canonlab's layout (row + (copy-1)*m), less the removed
    inter-copy covers (1-based (row, j) pairs)."""
    covers = {(r + j * m, r + 1 + j * m) for j in range(n) for r in range(m - 1)}
    covers |= {(r + j * m, r + (j + 1) * m) for j in range(n - 1) for r in range(m)}
    covers -= {((row - 1) + (j - 1) * m, (row - 1) + j * m) for row, j in removed}
    return workloads.GeneratedPoset(m * n, tuple(sorted(covers)), tuple(range(1, m * n + 1)))


def _extensions(p: workloads.GeneratedPoset) -> int:
    return sum(workloads.extension_stats(p)[0])


def _sweep(m: int, n: int) -> int:
    edges = [(row, j) for row in range(1, m + 1) for j in range(1, n)]
    return math.factorial(n) * sum(
        _extensions(_grid(m, n, [e for e, bit in zip(edges, bits) if bit]))
        for bits in product((0, 1), repeat=len(edges))
    )


ORACLE = {
    "poly canon --m 2 --n 6 --force-cap 12 --format json":
        lambda: _extensions(_grid(2, 6)) * math.factorial(6),
    "poly canon --m 3 --n 5 --force-cap 15 --format json":
        lambda: _extensions(_grid(3, 5)) * math.factorial(5),
    "sweep gamma --m 2 --n 4 --jobs 1 --format json": lambda: _sweep(2, 4),
    "gamma --m 2 --n 6 --format json":
        lambda: _extensions(_grid(2, 6)) * math.factorial(6),
}


def main() -> int:
    env = run._child_env()
    refs = {}
    for cmds in workloads.FIXED_COMMANDS.values():
        for argv in cmds:
            key = " ".join(argv)
            code, out, _, _ = run.run_child(["-m", "canonlab", *argv], env,
                                            perf_counter() + 600)
            lext = LEXT_FROM_OUTPUT[argv[0]](out)
            if lext != ORACLE[key]():
                print(f"error: {key}: output accounts for {lext} extensions, "
                      f"oracle says {ORACLE[key]()}", file=sys.stderr)
                return 1
            refs[key] = {"exit": code, "sha256": hashlib.sha256(out).hexdigest(),
                         "lext": lext}
            print(key, refs[key])
    (run.HERE / "reference.json").write_text(json.dumps(refs, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
