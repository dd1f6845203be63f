"""RL016 — no direct cost arithmetic outside ``repro.actions``.

The actions layer owns the one price book (``repro.actions.cost.
CostModel``) and all expected-value/settlement arithmetic over it.  Code
elsewhere that multiplies or adds cost attributes re-derives policy logic
in place — exactly how the pre-actions benchmarks drifted from each other:
two cost models, two notions of "saved", no single ledger to reconcile
them.  Passing a cost as a keyword argument (``CostModel(checkpoint_cost=
cost)``) is configuration and stays legal everywhere; *arithmetic* on one
is policy and belongs behind the actions API.

Flagged, in library code under ``src/repro`` (outside ``repro.actions``)
and in ``benchmarks``:

- any binary operation or augmented assignment with a cost-named operand
  (``checkpoint_cost``, ``restart_cost``, ``migration_cost``,
  ``quarantine_drain``, ``quarantine_occupancy``, ``false_alarm_cost``),
  whether a bare name or an attribute access.

Tests are exempt (they assert against hand-computed expectations).  A
deliberate derivation (e.g. printing a ratio in an operator report) can
carry a standard waiver comment.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional

from tools.repro_lint.diagnostics import Diagnostic
from tools.repro_lint.registry import register

if TYPE_CHECKING:
    from tools.repro_lint.engine import LintContext

#: Attribute/parameter names that denote a price in the actions cost model.
COST_ATTRS = frozenset(
    {
        "checkpoint_cost",
        "restart_cost",
        "migration_cost",
        "quarantine_drain",
        "quarantine_occupancy",
        "false_alarm_cost",
    }
)


def _cost_name(node: ast.expr) -> Optional[str]:
    """The cost attribute an expression names directly, if any."""
    if isinstance(node, ast.Name) and node.id in COST_ATTRS:
        return node.id
    if isinstance(node, ast.Attribute) and node.attr in COST_ATTRS:
        return node.attr
    return None


@register
class CostArithmeticRule:
    code = "RL016"
    severity = "error"
    name = "cost-arithmetic-outside-actions"
    description = "direct cost arithmetic outside repro.actions"
    hint = (
        "cost/expected-value arithmetic belongs to the actions layer's "
        "single price book — call repro.actions.CostModel's pricing/"
        "settlement methods instead of re-deriving the economics in "
        "place; see docs/actions.md"
    )

    def _in_scope(self, ctx: "LintContext") -> bool:
        if ctx.in_package("benchmarks"):
            return True
        if not ctx.in_package("src", "repro"):
            return False
        return not ctx.in_package("src", "repro", "actions")

    def check(self, ctx: "LintContext") -> Iterator[Diagnostic]:
        if not self._in_scope(ctx):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.BinOp):
                operands = (node.left, node.right)
            elif isinstance(node, ast.AugAssign):
                operands = (node.target, node.value)
            else:
                continue
            for operand in operands:
                found = _cost_name(operand)
                if found is not None:
                    yield ctx.diagnostic(
                        self,
                        node,
                        f"arithmetic on {found} outside repro.actions — "
                        "policy logic leaking out of the cost model",
                    )
                    break
