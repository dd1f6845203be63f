"""Shared count-maintenance primitives for the mining layer.

The mining engine and the Apriori test oracle must agree *exactly* on what
"frequent" means, or the oracle stops being a check.  The absolute-count threshold therefore lives here, spelled
once: :func:`min_count_for` is the single source of the ``ceil(support * n)``
conversion (with the "support == threshold passes" convention the paper's
0.04 cutoff implies).
"""

from __future__ import annotations

from repro.util.validation import check_fraction


def min_count_for(min_support: float, n_transactions: int) -> int:
    """Absolute transaction-count threshold for a relative support level.

    ``ceil(min_support * n_transactions)``, floored at 1 so a zero support
    threshold still requires an itemset to actually occur.  An itemset whose
    support *equals* the threshold is frequent (``count >= min_count``).
    """
    check_fraction(min_support, "min_support")
    # ceil via negated floor division; bit-identical to the historical
    # expression the miners used inline.
    return max(1, int(-(-min_support * n_transactions // 1)))
