"""The library carries no test-only surface.

Every public top-level function or class in ``src/canonlab``, and every
public method or property of a library class, must be used by library
code outside its own definition; re-exporting it from ``__init__.py``
does not count, and neither does an import that is never called.  A use
is a name or an attribute with the same name, so a method counts as used
when any library code reads an attribute of that name.  Dunder methods
are out of scope: operators and protocols call them without naming them.
The few names kept for tests or tools alone are listed below, each with
its reason; a member is listed as ``Class.name``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "canonlab"

ALLOWED = {
    "is_canon_permutation": "oracle: the definition of a canon word, which the tests "
    "check every canon-labeled extension against",
    "multiset_word": "oracle: the multiset word of an extension, the other side of "
    "those tests",
    "weak_descent_count": "oracle: the definitional weak-descent count the lanes "
    "over negated letters are tested against",
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


def _surface() -> tuple[dict[str, tuple[str, str]], set[str]]:
    """The public names (``name`` or ``Class.name`` -> (module, name)) and
    every name library code outside ``__init__.py`` uses, each
    definition's own body left out of its own uses (recursion, methods
    naming their class)."""
    defined: dict[str, tuple[str, str]] = {}
    used: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            name = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not name.startswith("_"):
                defined[name] = (module, name)
            if module == "__init__":
                continue
            if not isinstance(node, ast.ClassDef):
                used |= _used_names(node) - {name}
                continue
            for head in (*node.bases, *node.keywords, *node.decorator_list):
                used |= _used_names(head)
            for member in node.body:
                own = getattr(member, "name", None)
                if isinstance(member, ast.FunctionDef) and not own.startswith("_"):
                    if not name.startswith("_"):
                        defined[f"{name}.{own}"] = (module, own)
                used |= _used_names(member) - {own, name}
    return defined, used


def test_every_public_name_has_a_library_caller():
    defined, used = _surface()
    unused = sorted(f"{defined[n][0]}.{n}" for n in defined
                    if "." not in n and n not in used and n not in ALLOWED)
    assert not unused, f"public names only tests use: {unused}"
    stale = sorted(n for n in ALLOWED if n not in defined or defined[n][1] in used)
    assert not stale, f"allowlist entries no longer needed: {stale}"


def test_every_public_method_has_a_library_caller():
    defined, used = _surface()
    unused = sorted(f"{defined[n][0]}.{n}" for n in defined
                    if "." in n and defined[n][1] not in used and n not in ALLOWED)
    assert not unused, f"public methods and properties only tests use: {unused}"

