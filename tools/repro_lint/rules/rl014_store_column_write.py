"""RL014 — event-store columns are read-only outside ``repro.ras``.

The storage-backend redesign froze :class:`~repro.ras.store.EventStore`'s
column arrays: every public accessor (``.times``, ``.severities``, ...)
returns a read-only NumPy view, and the column attributes cannot be
rebound.  Code above the data layer must treat a store as immutable and
derive new stores (``select``, ``with_subcat_ids``, ``time_shifted``, ...)
instead of mutating one in place — in-place writes silently desynchronize
the columns from the backend (and from any on-disk columnar manifest they
were mapped from).

Flagged, in library code under ``src/repro`` but outside ``repro.ras``:

- ``obj.times = ...`` / ``obj.times += ...`` — rebinding a store column
  attribute (any form of ``Assign``/``AugAssign`` whose target is an
  attribute named like a column on a non-``self`` object);
- ``obj.times[i] = ...`` / ``obj.times[i] += ...`` — element writes
  through a column attribute (these now raise ``ValueError`` at runtime on
  the read-only view; the rule catches them before the stack trace does).

``self.times = ...`` inside a class's own methods is not flagged — a class
may legitimately own an attribute that happens to share a column's name;
the store itself manages its columns through its backend.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional

from tools.repro_lint.diagnostics import Diagnostic
from tools.repro_lint.registry import register

if TYPE_CHECKING:
    from tools.repro_lint.engine import LintContext

#: EventStore's column attributes (mirrors repro.ras.backend.COLUMN_NAMES;
#: kept literal here so the linter never imports the code under lint).
STORE_COLUMNS = frozenset(
    {
        "times",
        "severities",
        "facilities",
        "jobs",
        "location_ids",
        "entry_ids",
        "subcat_ids",
    }
)


def _column_write(target: ast.AST) -> Optional[tuple[str, str]]:
    """``(column, form)`` when ``target`` writes a store column, else None.

    ``form`` is ``"rebind"`` for ``obj.col = ...`` and ``"element"`` for
    ``obj.col[...] = ...``.  Writes through bare ``self`` are the owning
    class managing its own attribute and are never flagged.
    """
    if isinstance(target, ast.Subscript):
        inner = target.value
        if isinstance(inner, ast.Attribute) and inner.attr in STORE_COLUMNS:
            if isinstance(inner.value, ast.Name) and inner.value.id == "self":
                return None
            return inner.attr, "element"
        return None
    if isinstance(target, ast.Attribute) and target.attr in STORE_COLUMNS:
        if isinstance(target.value, ast.Name) and target.value.id == "self":
            return None
        return target.attr, "rebind"
    return None


@register
class StoreColumnWriteRule:
    code = "RL014"
    severity = "error"
    name = "store-columns-read-only"
    description = "write to an event-store column outside repro.ras"
    hint = (
        "EventStore columns are immutable above the data layer; derive a "
        "new store (select/with_subcat_ids/time_shifted/from_columns) "
        "instead of assigning to .times/.severities/... — see "
        "docs/storage.md"
    )

    def check(self, ctx: "LintContext") -> Iterator[Diagnostic]:
        if not ctx.in_package("src", "repro"):
            return
        if ctx.in_package("src", "repro", "ras"):
            return  # the data layer owns its columns
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assign):
                targets: list[ast.AST] = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                hit = _column_write(target)
                if hit is None:
                    continue
                column, form = hit
                what = (
                    f"element write through .{column}[...]"
                    if form == "element"
                    else f"rebind of .{column}"
                )
                yield ctx.diagnostic(
                    self,
                    target,
                    f"{what} — store columns are read-only outside "
                    "repro.ras",
                )
