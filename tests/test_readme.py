"""The README's examples run as written, and its registry is complete.

Every ``canonlab ...`` line of the CLI block runs as ``python -m canonlab``
and must exit 0; a ``# coeffs [...]`` comment must match the output.  The
library example runs too, and its first print must match its comment.
The verification registry has one row per ``verify`` statement.
"""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from canonlab.poset import chain, poset_to_json, product_with_chain
from canonlab.verify import VERIFY_CHECKS

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> list[str]:
    match = re.search(rf"^## {heading}\n.*?^```{lang}\n(.*?)^```", README, re.M | re.S)
    assert match, f"no {lang} block under '## {heading}'"
    return match.group(1).splitlines()


def test_cli_examples_run(tmp_path):
    # the example poset file: the [2]x[4] grid
    (tmp_path / "grid.json").write_text(poset_to_json(product_with_chain(chain(2), 4)))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    lines = [line for line in _block("CLI", "sh") if line.startswith("canonlab ")]
    assert len(lines) >= 10
    for line in lines:
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        done = subprocess.run([sys.executable, "-m", "canonlab", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, (line, done.stderr)
        comment = comment.strip()
        if comment.startswith("coeffs ["):
            assert comment in done.stdout.splitlines(), (line, done.stdout)


def test_library_example_runs():
    code = "\n".join(_block("Library example", "python"))
    first = next(line for line in code.splitlines() if line.startswith("print("))
    expected = first.partition("#")[2].strip()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[0] == expected


def test_registry_lists_every_statement():
    # one row per VERIFY_CHECKS entry, naming its ids (aliases share an entry)
    table = re.search(r"^### Verification registry\n(.*?)^#", README, re.M | re.S)
    assert table, "no '### Verification registry' section"
    rows = [re.findall(r"`([^`]+)`", line.split("|")[1])
            for line in table.group(1).splitlines() if line.startswith("| `")]
    entries: dict = {}
    for name, entry in VERIFY_CHECKS.items():
        entries.setdefault(entry, []).append(name)
    assert rows == list(entries.values())


def test_start_up_line_count():
    # the modules every command compiles, and their lines as wc -l counts them
    match = re.search(r"compiles\s+the package's\s+(.*?),\s+([\d,]+) lines \(`wc -l`\)",
                      README, re.S)
    assert match, "no start-up line count"
    modules = re.findall(r"`(\w+)`", match.group(1))
    assert modules == ["__init__", "cli", "canon", "polys", "linext", "poset", "kernel", "errors"]
    src = ROOT / "src" / "canonlab"
    lines = sum((src / f"{name}.py").read_bytes().count(b"\n") for name in modules)
    assert int(match.group(2).replace(",", "")) == lines
