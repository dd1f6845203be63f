"""Find the ``src/`` definitions that no real entry point reaches.

A definition (module-level function or class, or a method of a live class)
is *reachable* when its name occurs in live code.  Live code starts from
the roots:

* the console-script entry points in ``pyproject.toml``
  (``bgl-predict = "repro.cli.main:main"``);
* every Python file under :data:`ROOT_DIRS` (``perfbench/``,
  ``benchmarks/``, ``examples/``, ``tools/``);
* module-level code in ``src/`` (registrations, tables, ``__main__``
  blocks), apart from imports and ``__all__``, which only re-export.

The body of each reachable definition is live code in turn, and the scan
runs to a fixpoint.  It works on names, not on resolved symbols: a method
``close`` is live as soon as any live code says ``.close``.  That over-counts
what is reachable and never flags a live definition, so every finding is a
candidate for deletion.  Tests are not roots; ``tests/tools/test_reachability.py``
keeps the few test-only helpers on an allow-list and fails on anything else
this module reports.

Run ``python -m tools.repro_lint.reachability`` from the repo root for a
Markdown summary of the findings.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from tools.repro_lint.contracts import parse_toml

#: Directories whose every file is live code.
ROOT_DIRS = ("perfbench", "benchmarks", "examples", "tools")

#: Identifiers inside string constants, docstrings included: a string may
#: name a definition (``getattr(x, "name")``, ``"pkg.module:function"``).
_WORD_RE = re.compile(r"[A-Za-z_]\w*")

DefNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef]
_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass(eq=False)
class Definition:
    """One ``def`` or ``class`` in ``src/``."""

    path: Path
    module: str
    qualname: str
    node: DefNode
    parent: Optional["Definition"]

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def key(self) -> str:
        """Dotted id, e.g. ``repro.ras.store.EventStore.select``."""
        return f"{self.module}.{self.qualname}"

    def __str__(self) -> str:
        return f"{self.path}:{self.node.lineno}: {self.key}"


class _Names:
    """Names occurring in live code, with ``import x as y`` alias pairs."""

    def __init__(self) -> None:
        self.live: set[str] = set()
        self.aliases: dict[str, set[str]] = {}

    def add_code(self, nodes: Iterable[ast.AST]) -> None:
        for top in nodes:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    self.add(node.id)
                elif isinstance(node, ast.Attribute):
                    self.add(node.attr)
                elif isinstance(node, ast.alias):
                    # An import is not a use; the bound name must be used.
                    if node.asname and node.asname != node.name:
                        self.aliases.setdefault(node.asname, set()).add(node.name)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    for word in _WORD_RE.findall(node.value):
                        self.add(word)

    def add(self, name: str) -> None:
        if name in self.live:
            return
        self.live.add(name)
        for target in self.aliases.get(name, ()):
            self.add(target)


def _module_name(path: Path, src: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_all_assignment(stmt: ast.stmt) -> bool:
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    else:
        return False
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _split_body(body: list[ast.stmt]) -> tuple[list[DefNode], list[ast.AST]]:
    """Definitions and other code of a module or class body.

    ``if``/``try`` blocks are opened, so a ``def`` under
    ``if sys.version_info`` still counts as a definition.
    """
    defs: list[DefNode] = []
    code: list[ast.AST] = []
    for stmt in body:
        if isinstance(stmt, _DEF_NODES):
            defs.append(stmt)
        elif isinstance(stmt, (ast.If, ast.Try)):
            blocks = [stmt.body, stmt.orelse]
            if isinstance(stmt, ast.If):
                code.append(stmt.test)
            else:
                code += [h.type for h in stmt.handlers if h.type]
                blocks += [h.body for h in stmt.handlers] + [stmt.finalbody]
            for block in blocks:
                sub_defs, sub_code = _split_body(block)
                defs += sub_defs
                code += sub_code
        elif not _is_all_assignment(stmt):
            code.append(stmt)
    return defs, code


def _iter_defs(
    body: list[ast.stmt], path: Path, module: str, parent: Optional[Definition]
) -> Iterator[Definition]:
    for node in _split_body(body)[0]:
        prefix = f"{parent.qualname}." if parent else ""
        definition = Definition(path, module, prefix + node.name, node, parent)
        yield definition
        if isinstance(node, ast.ClassDef):
            yield from _iter_defs(node.body, path, module, definition)


def _entry_point_targets(pyproject: Path) -> list[str]:
    """The ``[project.scripts]`` targets, e.g. ``repro.cli.main:main``."""
    if not pyproject.is_file():
        return []
    project = parse_toml(pyproject.read_text("utf-8")).get("project", {})
    return list(project.get("scripts", {}).values())


def _python_files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts)


def find_unreachable(
    repo: Path, *, keep: Iterable[str] = ()
) -> list[Definition]:
    """The ``src/`` definitions of ``repo`` that no root reaches.

    ``keep`` lists :attr:`Definition.key` ids to treat as roots (helpers
    kept for tests); they are not reported, and what they use stays live.
    A class that is unreachable is reported once, without its methods.
    """
    src = repo / "src"
    names = _Names()
    for target in _entry_point_targets(repo / "pyproject.toml"):
        for word in _WORD_RE.findall(target):
            names.add(word)
    for root in ROOT_DIRS:
        for path in _python_files(repo / root):
            names.add_code([ast.parse(path.read_text("utf-8"), str(path))])

    definitions: list[Definition] = []
    for path in _python_files(src):
        tree = ast.parse(path.read_text("utf-8"), str(path))
        names.add_code(_split_body(tree.body)[1])
        module = _module_name(path, src)
        definitions += _iter_defs(tree.body, path.relative_to(repo), module, None)

    kept = set(keep)
    live: set[Definition] = set()
    changed = True
    while changed:
        changed = False
        for definition in definitions:
            if definition in live:
                continue
            parent_live = definition.parent is None or definition.parent in live
            name = definition.name
            reached = name in names.live or (
                name.startswith("__") and name.endswith("__")
            )
            if definition.key in kept or (parent_live and reached):
                live.add(definition)
                changed = True
                node = definition.node
                if isinstance(node, ast.ClassDef):
                    header = [*node.decorator_list, *node.bases, *node.keywords]
                    names.add_code(header + _split_body(node.body)[1])
                else:
                    names.add_code([node])
    return [
        d
        for d in definitions
        if d not in live and (d.parent is None or d.parent in live)
    ]


def main() -> int:
    """Print the scan of the current directory as a Markdown summary."""
    found = find_unreachable(Path.cwd())
    print(f"### Reachability: {len(found)} src definitions no root reaches\n")
    for definition in found:
        print(f"- `{definition}`")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
