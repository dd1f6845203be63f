"""Causal precursor chain templates.

Each :class:`ChainTemplate` is one recurring failure mode: a *body* of
non-fatal precursor subcategories that escalates to a fatal *head* with the
chain's *confidence*.  The first eleven templates transcribe the association
rules the paper exhibits in Figure 3 (body, head and confidence); the rest
extend coverage to every fatal category so that each Table-4 row has
rule-discoverable structure.

Timing of one chain instance: the body events spread over ``body_span``
seconds (in template order), and when the instance escalates the head
follows the last body event after a lag uniform in ``head_lag``.  The
geometry drives two of the paper's observed trends:

- **body_span** makes the rule-generation-window sweep (Step 5) non-trivial:
  a window shorter than ``body_span + head_lag`` truncates bodies and weakens
  the mined rules (the paper lands on 15 min for ANL, 25 min for SDSC);
- **short head lags** with **long body spans** produce Figure 4's shape: at a
  small prediction window only tightly-clustered bodies complete — rarely,
  but when they do the head follows almost immediately (high precision, low
  recall); a large window completes every body (recall rises) while
  admitting more coincidental matches (precision erodes).

Template *weights* decide how each category's chain quota distributes.  They
are deliberately top-heavy: only patterns whose head count clears the mining
support threshold (0.04 of all fatals) can be rediscovered as rules, exactly
the support/coverage trade-off the paper discusses when justifying its
thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.taxonomy.subcategories import by_name
from repro.util.timeutil import MINUTE
from repro.util.validation import check_fraction, check_positive


@dataclass(frozen=True)
class ChainTemplate:
    """One precursor -> failure pattern the generator plants.

    Attributes
    ----------
    key:
        Short unique identifier (profiles override weights by key).
    body:
        Ordered non-fatal subcategory names (the precursors).
    head:
        Fatal subcategory name this chain escalates to.
    confidence:
        P(head occurs | body occurs) — directly bounds the rule predictor's
        realized precision on this pattern.
    body_span:
        Seconds over which the body events spread.
    head_lag:
        (lo, hi) seconds between the last body event and the head.
    weight:
        Relative share of its head-category's chain quota.
    anchorable:
        Whether instances may be anchored inside failure storms (the
        coverage-overlap mechanism).  Marquee Figure-3 patterns with very
        high confidence are not anchorable: storm proximity would place
        their precursors inside foreign failures' event-set windows and
        dilute the mined confidence below the published value.
    """

    key: str
    body: tuple[str, ...]
    head: str
    confidence: float
    body_span: float = 10 * MINUTE
    head_lag: tuple[float, float] = (30.0, 240.0)
    weight: float = 1.0
    anchorable: bool = True

    def __post_init__(self) -> None:
        if not self.key:
            raise ValueError("chain key must be non-empty")
        if not self.body:
            raise ValueError("chain body must be non-empty")
        check_fraction(self.confidence, "confidence")
        check_positive(self.body_span, "body_span")
        check_positive(self.weight, "weight")
        lo, hi = self.head_lag
        if not 0 < lo < hi:
            raise ValueError("head_lag must satisfy 0 < lo < hi")
        for name in self.body:
            sc = by_name(name)
            if sc.is_fatal:
                raise ValueError(f"body item {name} must be non-fatal")
        if not by_name(self.head).is_fatal:
            raise ValueError(f"head {self.head} must be fatal")

    @property
    def max_extent(self) -> float:
        """Largest body-start to head distance an instance can span."""
        return self.body_span + self.head_lag[1]


#: (key, body, head, confidence, weight, anchorable) of every template;
#: geometry comes from the factory arguments.  The first eleven transcribe
#: Figure 3.
_SPECS: tuple[tuple[str, tuple[str, ...], str, float, float, bool], ...] = (
    # -- Figure 3 transcriptions ---------------------------------------- #
    ("nodemap-file", ("nodeMapFileError",), "nodeMapCreateFailure", 1.0, 2.0, False),
    ("nodemap-bad", ("nodeMapError",), "nodeMapCreateFailure", 0.947, 0.5, False),
    ("ctlnet-conn", ("controlNetworkNMCSError",), "nodeConnectionFailure", 0.708, 0.6, False),
    ("ddr-socket", ("ddrErrorCorrectionInfo", "maskInfo"), "socketReadFailure", 0.698, 3.0, False),
    ("ciod-rtslink",
     ("ciodRestartInfo", "midplaneStartInfo", "controlNetworkInfo"),
     "rtsLinkFailure", 0.697, 0.7, True),
    ("nodecard-linkcard-a",
     ("nodecardVPDMismatch", "nodecardAssemblySevereDiscovery",
      "nodecardFunctionalityWarning"),
     "linkcardFailure", 0.636, 1.5, True),
    ("nodecard-linkcard-b",
     ("nodecardVPDMismatch", "nodecardFunctionalityWarning",
      "midplaneLinkcardRestartWarning"),
     "linkcardFailure", 0.600, 1.0, True),
    ("coredump-load", ("coredumpCreated",), "loadProgramFailure", 0.583, 4.0, False),
    ("mpstart-cache",
     ("midplaneStartInfo", "controlNetworkInfo", "BGLMasterRestartInfo"),
     "cacheFailure", 0.556, 1.0, True),
    ("nodecard-linkcard-c",
     ("nodecardDiscoveryError", "nodecardFunctionalityWarning",
      "endServiceWarning", "midplaneLinkcardRestartWarning"),
     "linkcardFailure", 0.545, 0.8, True),
    # -- coverage of the remaining fatal categories --------------------- #
    ("watchdog-panic", ("watchdogTimerWarning", "kernelAssertError"),
     "kernelPanicFailure", 0.80, 8.0, False),
    ("tlb-dataaddr", ("tlbMissError",), "dataAddressFailure", 0.70, 1.0, True),
    ("align", ("memoryAlignmentError",), "alignmentFailure", 0.65, 0.6, True),
    ("irq-mcheck", ("interruptVectorError", "kernelModeError"),
     "machineCheckFailure", 0.72, 0.8, True),
    ("sram-parity", ("sramParityError", "l2CacheError"), "parityFailure",
     0.75, 1.0, True),
    ("ddr-edram", ("ddrSingleSymbolInfo", "scrubCorrectionInfo"),
     "edramFailure", 0.62, 1.0, True),
    ("ddr-dataread", ("ddrErrorCorrectionInfo", "l3CacheError"),
     "dataReadFailure", 0.70, 1.0, True),
    ("ciodio-sockwrite", ("ciodIoWarning", "socketCloseError"),
     "socketWriteFailure", 0.85, 2.0, False),
    ("fileread-stream", ("fileReadError", "ciodIoWarning"),
     "streamReadFailure", 0.80, 2.0, False),
    ("torus-sendrecv", ("torusSenderError", "torusReceiverError"),
     "torusFailure", 0.80, 6.0, False),
    ("memleak-oom", ("memoryLeakWarning", "pageAllocationError"),
     "appOutOfMemoryFailure", 0.75, 0.5, True),
    ("appexit-login", ("appExitWarning", "appSignalError"), "loginFailure",
     0.70, 0.5, True),
    ("nc-temp-fail", ("nodecardTempWarning", "nodecardPowerError"),
     "nodecardFailure", 0.65, 1.0, True),
    ("fan-bulkpower", ("fanSpeedWarning", "powerSupplyError"),
     "bulkPowerFailure", 0.60, 1.0, True),
    ("endsvc-ciodsignal", ("endServiceWarning", "midplaneServiceWarning"),
     "ciodSignalFailure", 0.66, 1.0, True),
)


def default_chain_templates(
    confidence_scale: float = 1.0,
    body_span: float = 10 * MINUTE,
    head_lag: tuple[float, float] = (30.0, 240.0),
    weight_overrides: Optional[Mapping[str, float]] = None,
) -> list[ChainTemplate]:
    """Build the template catalog with profile-specific geometry.

    ``confidence_scale`` multiplies every confidence (clipped to 1.0): the
    SDSC profile uses > 1 because the paper observes SDSC yields more
    high-confidence rules than ANL.  ``weight_overrides`` adjusts quota
    shares by template key.
    """
    overrides = dict(weight_overrides or {})
    templates: list[ChainTemplate] = []
    for key, body, head, conf, weight, anchorable in _SPECS:
        templates.append(
            ChainTemplate(
                key=key,
                body=body,
                head=head,
                confidence=min(1.0, conf * confidence_scale),
                body_span=body_span,
                head_lag=head_lag,
                weight=overrides.pop(key, weight),
                anchorable=anchorable,
            )
        )
    if overrides:
        raise KeyError(f"unknown template keys in overrides: {sorted(overrides)}")
    return templates
