"""RL008 — no per-event container rebuilds in the serving hot paths.

The original online session resolved warnings by rebuilding its whole
pending ``deque`` on every arrival (``deque(w for w in pending if ...)``),
which is O(P) per event — quadratic wall time once a backlog builds.  The
serving engine replaced that with heap-based resolution
(``repro.online.resolution``), and this rule keeps the regression from
coming back: inside the per-event methods of ``repro.online`` and
``repro.serve``, constructing a ``deque`` (any form) or materializing a
``list(...)`` copy is almost certainly a full rebuild of per-stream state.

Flagged, inside a function whose name is one of the per-event entry points
(``feed``, ``process``, ``step``, ``advance``, ``add`` ...):

- any call to ``collections.deque`` (aliased or bare);
- ``list(...)`` with at least one positional argument (a copy/rebuild;
  the empty ``list()`` constructor is fine).

Detection itself is batch-only: ``MetaStream.detect`` is the one dispatch
loop and ``OnlineSession``/``DetectorPool`` feed it whole chunks
(``process_store``), which is out of scope — one container build per
*batch* is the design.  The per-event methods that remain are the
resolver's ``WarningResolver.advance``/``add``/``observe_failure``, run once
per event of every chunk, and the dispatch's emit helpers
``MetaStream._emit_rule``/``_emit_stat``, run per raised warning (they
live in ``repro.meta``, outside the packages this rule scans).  The name
list also keeps the removed per-event entry points, so none can come back
with a rebuild in it.  Genuinely per-event container needs (e.g. provably
bounded size) can carry a ``# repro-lint: disable=RL008`` waiver with a
justifying comment.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional

from tools.repro_lint.astutil import iter_calls, resolve_call
from tools.repro_lint.diagnostics import Diagnostic
from tools.repro_lint.registry import register

if TYPE_CHECKING:
    from tools.repro_lint.engine import LintContext

#: Method names that run once per *event* in the serving path.  The batch
#: entry points (process_store, MetaStream.detect) may build containers
#: freely — once per batch is the point.
PER_EVENT_METHODS = frozenset(
    {
        "step",
        "feed",
        "process",
        "add",
        "remove",
        "advance",
        "observe",
        "observe_failure",
        "shard_of",
        "_advance",
        "_expire",
        "_emit_rule",
        "_emit_stat",
    }
)

def _rebuild_kind(call: ast.Call, ctx: "LintContext") -> Optional[str]:
    """``"deque"``/``"list"`` if this call constructs one, else ``None``."""
    dotted = resolve_call(call, ctx.imports)
    if dotted == "collections.deque" or (
        dotted is None
        and isinstance(call.func, ast.Name)
        and call.func.id == "deque"
    ):
        return "deque"
    if (
        isinstance(call.func, ast.Name)
        and call.func.id == "list"
        and dotted is None
        and call.args
    ):
        return "list"
    return None


@register
class PerEventRebuildRule:
    code = "RL008"
    severity = "error"
    name = "no-per-event-rebuild"
    description = "container rebuild inside a per-event serving method"
    hint = (
        "per-event methods in repro.online/repro.serve must do O(log P) "
        "work; keep incremental state (heaps, dicts) instead of rebuilding "
        "a deque/list per arrival — see repro.online.resolution"
    )

    def check(self, ctx: "LintContext") -> Iterator[Diagnostic]:
        if not (
            ctx.in_package("src", "repro", "online")
            or ctx.in_package("src", "repro", "serve")
        ):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in PER_EVENT_METHODS:
                continue
            for call in iter_calls(node):
                kind = _rebuild_kind(call, ctx)
                if kind is None:
                    continue
                yield ctx.diagnostic(
                    self,
                    call,
                    f"{kind}(...) constructed inside per-event method "
                    f"{node.name}() — O(P) rebuild per arrival",
                )
