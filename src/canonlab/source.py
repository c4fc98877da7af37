"""How a command gets its poset: a ``--poset`` file, or the ``--m`` x
``--n`` grid (the checked product with ``--checked``) less its
``--remove`` covers; and the ``extensions`` command, which lists or
counts that poset's linear extensions.

No start-up compiles this module: ``cli._load`` imports it for
``extensions``, ``poly hstar`` and ``poly dissonant``, and it imports
``canonlab.forms`` the same way, only for ``--checked``.
"""

from __future__ import annotations

from itertools import islice
from types import SimpleNamespace

from canonlab.cli import MAX_LISTED, _load, _print_json
from canonlab.errors import PosetFormatError, SizeCapError
from canonlab.kernel import count_extensions
from canonlab.linext import enumerate_linear_extensions
from canonlab.poset import (
    Poset,
    _removed_mask,
    _row_labeling,
    canon_labeling,
    chain,
    poset_from_json,
    product_with_chain,
)


def _parse_removed(text: str) -> tuple[tuple[int, int], ...]:
    if not text:
        return ()
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            row, j = part.split(":")
            out.append((int(row), int(j)))
        except ValueError as exc:
            raise PosetFormatError(
                f'bad --remove entry {part!r}, expected "row:j"'
            ) from exc
    return tuple(out)


def load_poset(path: str, repair: bool = False) -> tuple[Poset, tuple[int, ...] | None]:
    """Read and validate a poset JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise PosetFormatError(f"cannot read {path}: {exc}") from exc
    return poset_from_json(text, repair=repair)


def _resolve_poset(cfg: SimpleNamespace) -> tuple[Poset, tuple[int, ...] | None]:
    """The poset of ``--poset``, or the ``--m`` x ``--n`` grid (the checked
    product with ``--checked``) less its ``--remove`` covers, with its
    labeling."""
    given = [f"--{name}" for name in ("m", "n", "w", "checked", "remove")
             if getattr(cfg, name) is not None]
    if cfg.poset is not None:
        if given:
            raise PosetFormatError(f"--poset does not combine with {', '.join(given)}")
        return load_poset(cfg.poset, repair=cfg.repair)
    if cfg.repair or cfg.m is None or cfg.n is None:
        raise PosetFormatError("give --poset FILE (which --repair needs), or --m and --n")
    mask = _removed_mask(cfg.m, cfg.n, _parse_removed(cfg.remove))
    if cfg.checked:
        forms = _load("forms")
        p = forms.checked_product(chain(cfg.m), cfg.n, mask)
        return p, forms.checked_labeling(_row_labeling(cfg.w, cfg.m), cfg.n)
    p = product_with_chain(chain(cfg.m), cfg.n, mask)
    return p, canon_labeling(_row_labeling(cfg.w, cfg.m), range(1, cfg.n + 1))


def run(cfg: SimpleNamespace) -> int:
    """The ``extensions`` command: the count, or a listing bounded by
    ``MAX_LISTED`` printed element indices."""
    p, _ = _resolve_poset(cfg)
    if cfg.count_only:
        print(count_extensions(p))
        return 0
    n = p.element_count
    # with a small enough --limit, the enumerator stops early: skip the count
    if (cfg.limit is None or cfg.limit * n > MAX_LISTED) and (
        count_extensions(p) * n > MAX_LISTED
    ):
        raise SizeCapError(
            f"listing would print more than {MAX_LISTED} element indices; "
            "pass a smaller --limit or --count-only"
        )
    stream = islice(enumerate_linear_extensions(p), cfg.limit)
    if cfg.format == "json":
        _print_json([list(order) for order in stream])
    else:
        for order in stream:
            print(" ".join(map(str, order)))
    return 0
