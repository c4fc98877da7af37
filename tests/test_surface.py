"""The library carries no test-only surface.

Every public top-level function or class in ``src/canonlab`` must be used
by library code outside its own definition; re-exporting it from
``__init__.py`` does not count, and neither does an import that is never
called.  The few names kept for tests or tools alone are listed below,
each with its reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "canonlab"

ALLOWED = {
    "is_canon_permutation": "oracle: the definition of a canon word, which the tests "
    "check every canon-labeled extension against",
    "multiset_word": "oracle: the multiset word of an extension, the other side of "
    "those tests",
    "weak_descent_count": "oracle: the definitional weak-descent count the kernel's "
    "weak mode is tested against",
    "order_polynomial_values": "oracle: the definitional order-polynomial brute force "
    "the h* generating-function contract is tested against",
    "backend": "kernel.backend, read by canonbench through canonlab.kernel_backend",
}


def _used_names(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_every_public_name_has_a_library_caller():
    defined: dict[str, str] = {}  # public top-level name -> its module
    used: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            name = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not name.startswith("_"):
                defined[name] = module
            if module == "__init__":
                continue
            # a definition's own body (recursion, methods naming their
            # class) does not count as a use of it
            used |= _used_names(node) - {name}
    unused = sorted(f"{defined[n]}.{n}" for n in defined if n not in used and n not in ALLOWED)
    assert not unused, f"public names only tests use: {unused}"
    stale = sorted(n for n in ALLOWED if n not in defined or n in used)
    assert not stale, f"allowlist entries no longer needed: {stale}"
