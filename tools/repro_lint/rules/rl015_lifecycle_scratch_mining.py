"""RL015 — no from-scratch mining inside the lifecycle layer.

The lifecycle layer retrains on sliding windows, where successive training
sets overlap almost entirely.  The incremental mining engine
(``repro.mining.incremental``, surfaced through ``lifecycle.Retrainer``'s
:class:`~repro.evaluation.incremental.IncrementalFitter`) maintains the
mined state across retrains and re-pays only for the window delta, with
bit-identical results; calling the one-shot fit ``generate_rules()`` from
lifecycle code fills a fresh engine from empty and silently re-pays the full
mining cost on every retrain — exactly the regression the maintained engine
exists to prevent.

Flagged, in library code under ``src/repro/lifecycle``:

- any call to ``generate_rules()`` — whether imported directly or reached
  as ``module.attr``.

Fitting through a :class:`~repro.evaluation.spec.PredictorSpec` (``spec.
build().fit(...)`` or ``fit_spec``) is not flagged: that path is gated by
the retrainer's fitter and falls back to from-scratch mining only when
incremental fitting is off.  A deliberate from-scratch call (e.g. a
one-shot diagnostic) can carry a standard waiver comment.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional

from tools.repro_lint.astutil import iter_calls, resolve_call
from tools.repro_lint.diagnostics import Diagnostic
from tools.repro_lint.registry import register

if TYPE_CHECKING:
    from tools.repro_lint.engine import LintContext

#: The from-scratch mining entry point (repro.mining's one-shot fit).
SCRATCH_MINERS = frozenset({"generate_rules"})


def _called_name(call: ast.Call, ctx: "LintContext") -> Optional[str]:
    """Bare name of the called function, through import aliases."""
    dotted = resolve_call(call, ctx.imports)
    if dotted:
        if not dotted.startswith("repro.mining"):
            return None  # an unrelated function that shares the name
        return dotted.rsplit(".", 1)[-1]
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


@register
class LifecycleScratchMiningRule:
    code = "RL015"
    severity = "error"
    name = "lifecycle-scratch-mining"
    description = "from-scratch mining call inside repro.lifecycle"
    hint = (
        "lifecycle retrains slide overlapping windows; mine through the "
        "maintained incremental engine (Retrainer's IncrementalFitter / "
        "repro.mining.incremental) instead of a one-shot generate_rules "
        "fit — see docs/incremental_mining.md"
    )

    def check(self, ctx: "LintContext") -> Iterator[Diagnostic]:
        if not ctx.in_package("src", "repro", "lifecycle"):
            return
        for call in iter_calls(ctx.tree):
            name = _called_name(call, ctx)
            if name not in SCRATCH_MINERS:
                continue
            yield ctx.diagnostic(
                self,
                call,
                f"from-scratch {name}() in lifecycle code — O(window) "
                "mining on every retrain",
            )
