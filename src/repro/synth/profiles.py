"""Calibrated system profiles (ANL and SDSC).

A :class:`SystemProfile` bundles every knob of the synthetic log generator.
The two factory functions return profiles calibrated so the full pipeline
reproduces the paper's reported numbers:

- per-category compressed fatal counts = paper Table 4 (exact by
  construction, up to compression edge effects);
- statistical predictor precision/recall ~ Table 5 (via the burst process's
  spawn probability and fan-out);
- rule precision/recall bands and their trends vs the prediction window ~
  Figure 4 (via chain confidences, instance geometry and body-item noise);
- meta-learner curves ~ Figure 5 (the chain/burst overlap knob
  ``chain_burst_anchor_fraction`` sets how much the two base predictors'
  coverages intersect);
- no-precursor fatal fraction inside the paper's stated ranges (via the
  chain/burst/orphan budget split and the background noise level — the real
  preprocessed logs average only tens of unique events per day, so look-back
  windows are frequently *empty*);
- raw record volume ~ Table 1 (via the duplication model: one job fault is
  reported by on the order of a hundred chip/polling duplicates, which is
  why the raw ANL log has 4.17 M records but only ~10^4 unique fatal events).

Scaling: ``LogGenerator(profile, scale=s)`` simulates ``s * days`` with the
same rates and probabilities, so all *ratio* metrics are scale-invariant
while counts shrink linearly — tests run at small scales, benches at larger
ones, and ``scale=1`` reproduces the paper-scale log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.bgl.cmcs import DuplicationModel
from repro.bgl.topology import ANL_SPEC, SDSC_SPEC, MachineSpec
from repro.synth.chains import ChainTemplate, default_chain_templates
from repro.taxonomy.categories import MainCategory
from repro.taxonomy.subcategories import by_name
from repro.util.timeutil import MINUTE
from repro.util.validation import check_fraction, check_positive

_APP = MainCategory.APPLICATION
_IO = MainCategory.IOSTREAM
_KRN = MainCategory.KERNEL
_MEM = MainCategory.MEMORY
_MID = MainCategory.MIDPLANE
_NET = MainCategory.NETWORK
_NC = MainCategory.NODECARD
_OTH = MainCategory.OTHER


@dataclass(frozen=True)
class NoiseSpec:
    """Background rate of one non-fatal subcategory (unique events/day)."""

    subcategory: str
    rate_per_day: float

    def __post_init__(self) -> None:
        if by_name(self.subcategory).is_fatal:
            raise ValueError(f"noise subcategory {self.subcategory} is fatal")
        if self.rate_per_day < 0:
            raise ValueError("rate_per_day must be >= 0")


@dataclass(frozen=True)
class BurstConfig:
    """Parameters of the clustered-failure (storm) process.

    Failure storms are sequences of network/iostream fatal events with
    member-to-member lags uniform in ``lag`` seconds; storm sizes are
    ``2 + Poisson(mean_cluster_size - 2)`` (a storm of one would be an
    orphan).  Every member except the last is followed by another failure
    within the statistical band, so the per-member follow-up rate — what the
    statistical predictor's precision measures — is ``(k-1)/k`` averaged
    over sizes, diluted at the log level by the non-storm network/iostream
    failures (chain heads and orphans) that trigger the predictor but have
    no followers.  Burst-quota events of *other* categories attach to storms
    as leaves, modeling the paper's observation that network/I-O failures
    *dominate* — but do not exhaust — the close-proximity failures.
    """

    mean_cluster_size: float = 6.0
    max_cluster_size: int = 40
    lag: tuple[float, float] = (6 * MINUTE, 45 * MINUTE)

    def __post_init__(self) -> None:
        if self.mean_cluster_size < 2.0:
            raise ValueError("mean_cluster_size must be >= 2")
        if self.max_cluster_size < 2:
            raise ValueError("max_cluster_size must be >= 2")
        lo, hi = self.lag
        if not 0 < lo < hi:
            raise ValueError("lag must satisfy 0 < lo < hi")


@dataclass(frozen=True)
class WorkloadConfig:
    """Job workload knobs (see :class:`repro.bgl.jobs.JobWorkloadModel`)."""

    mean_interarrival: float = 1800.0
    mean_duration: float = 4 * 3600.0
    sigma_duration: float = 1.0
    p_full_machine: float = 0.3


@dataclass(frozen=True)
class SystemProfile:
    """Complete parameterization of one synthetic Blue Gene/L system."""

    name: str
    machine: MachineSpec
    start_epoch: int
    days: float
    #: Full-scale per-category compressed fatal budget (paper Table 4).
    fatal_budget: Mapping[MainCategory, int]
    #: Fraction of each category's budget produced by precursor chains.
    chain_fraction: Mapping[MainCategory, float]
    #: Fraction of each category's budget produced as burst members.
    burst_fraction: Mapping[MainCategory, float]
    chains: Sequence[ChainTemplate]
    burst: BurstConfig
    noise: Sequence[NoiseSpec]
    duplication: DuplicationModel
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    #: Fraction of chain instances anchored shortly after a burst member
    #: rather than at a uniform time.  Anchored instances' heads are covered
    #: by *both* base predictors — the coverage overlap Figure 5 implies.
    chain_burst_anchor_fraction: float = 0.0
    #: Diurnal modulation of background noise: rate(t) follows
    #: ``1 + diurnal_amplitude * sin(2*pi*(t mod day)/day)``, peaking six
    #: hours into each UTC day.  Production logs show exactly this daytime
    #: swell in informational traffic; 0 disables it.
    diurnal_amplitude: float = 0.0
    #: Body-span multiplier for chain instances that do NOT escalate to a
    #: head.  Values > 1 make non-escalating precursor patterns more
    #: diffuse, so at small prediction windows only the tight, escalating
    #: patterns complete — producing Figure 4/5's high precision at 5 min
    #: that erodes as the window grows.
    headless_span_factor: float = 2.0
    #: Weights for choosing the concrete fatal subcategory of burst/orphan
    #: events within a category (subcategory name -> weight); categories not
    #: listed use uniform weights over their fatal subcategories.
    fatal_subcat_weights: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive(self.days, "days")
        check_fraction(self.chain_burst_anchor_fraction, "chain_burst_anchor_fraction")
        check_fraction(self.diurnal_amplitude, "diurnal_amplitude")
        for cat in MainCategory:
            cf = self.chain_fraction.get(cat, 0.0)
            bf = self.burst_fraction.get(cat, 0.0)
            check_fraction(cf, f"chain_fraction[{cat.value}]")
            check_fraction(bf, f"burst_fraction[{cat.value}]")
            if cf + bf > 1.0:
                raise ValueError(
                    f"chain_fraction + burst_fraction > 1 for {cat.value}"
                )
            if self.fatal_budget.get(cat, 0) < 0:
                raise ValueError(f"negative budget for {cat.value}")

#: Epochs of the paper's log start dates (UTC midnight).
_ANL_START = 1106265600  # 2005-01-21
_SDSC_START = 1102291200  # 2004-12-06


def anl_profile() -> SystemProfile:
    """The ANL Blue Gene/L profile (1 rack, 32 I/O nodes, 15-month log).

    Calibration targets: Table 4 ANL column; Table 5 ANL (P 0.52 / R 0.49);
    Figure 4 left (rule P 0.7-0.9, R rising 0.22-0.55, best rule window
    15 min); Figure 5 left (meta P 0.88->0.65, R 0.64->0.78).
    """
    return SystemProfile(
        name="ANL",
        machine=ANL_SPEC,
        start_epoch=_ANL_START,
        days=462.0,
        fatal_budget={
            _APP: 762, _IO: 1173, _KRN: 224, _MEM: 52,
            _MID: 102, _NET: 482, _NC: 20, _OTH: 8,
        },
        chain_fraction={
            _APP: 0.68, _IO: 0.36, _KRN: 0.75, _MEM: 0.80,
            _MID: 0.85, _NET: 0.33, _NC: 0.80, _OTH: 0.75,
        },
        burst_fraction={
            _APP: 0.24, _IO: 0.52, _KRN: 0.14, _MEM: 0.12,
            _MID: 0.0, _NET: 0.52, _NC: 0.0, _OTH: 0.0,
        },
        chains=default_chain_templates(
            confidence_scale=1.08,
            body_span=7 * MINUTE,
            head_lag=(30.0, 120.0),
            weight_overrides={
                "coredump-load": 1.2,
                "ddr-socket": 4.0,
                "ciodio-sockwrite": 3.0,
                "fileread-stream": 3.0,
            },
        ),
        burst=BurstConfig(mean_cluster_size=8.0),
        noise=_noise_rates(high_scale=0.38, body_scale=1.2),
        duplication=DuplicationModel(
            mean_reporting_chips=128.0,
            max_reporting_chips=512,
            mean_repeats=2.0,
            jitter_span=120.0,
        ),
        workload=WorkloadConfig(),
        chain_burst_anchor_fraction=0.85,
        diurnal_amplitude=0.3,
        headless_span_factor=2.2,
        fatal_subcat_weights={
            "socketReadFailure": 2.0,
            "streamReadFailure": 1.5,
            "torusFailure": 1.8,
            "rtsFailure": 1.5,
            "loadProgramFailure": 2.0,
        },
    )


def sdsc_profile() -> SystemProfile:
    """The SDSC Blue Gene/L profile (I/O-rich rack, 14.5-month log).

    Calibration targets: Table 4 SDSC column; Table 5 SDSC (P 0.28 /
    R 0.31); Figure 4 right (best rule window 25 min); Figure 5 right
    (meta P 0.99->0.89, R ~ 0.65).  SDSC differs from ANL in: higher
    chain confidences (more high-confidence rules, per the paper's
    discussion), wider chain geometry (best rule-generation window 25 min),
    weaker bursts (lower temporal correlation), and an order of magnitude
    less log volume.
    """
    return SystemProfile(
        name="SDSC",
        machine=SDSC_SPEC,
        start_epoch=_SDSC_START,
        days=442.0,
        fatal_budget={
            _APP: 587, _IO: 905, _KRN: 182, _MEM: 25,
            _MID: 97, _NET: 366, _NC: 17, _OTH: 3,
        },
        chain_fraction={
            _APP: 0.68, _IO: 0.42, _KRN: 0.75, _MEM: 0.70,
            _MID: 0.75, _NET: 0.36, _NC: 0.70, _OTH: 0.67,
        },
        burst_fraction={
            _APP: 0.10, _IO: 0.24, _KRN: 0.06, _MEM: 0.0,
            _MID: 0.0, _NET: 0.24, _NC: 0.0, _OTH: 0.0,
        },
        chains=default_chain_templates(
            confidence_scale=1.45,
            body_span=14 * MINUTE,
            head_lag=(60.0, 240.0),
        ),
        burst=BurstConfig(mean_cluster_size=4.0),
        noise=_noise_rates(high_scale=0.22, body_scale=0.5),
        duplication=DuplicationModel(
            mean_reporting_chips=24.0,
            max_reporting_chips=256,
            mean_repeats=1.6,
            jitter_span=120.0,
        ),
        workload=WorkloadConfig(mean_interarrival=2400.0),
        chain_burst_anchor_fraction=0.60,
        headless_span_factor=2.0,
        fatal_subcat_weights={
            "socketReadFailure": 4.0,
            "streamWriteFailure": 2.0,
            "torusFailure": 3.0,
            "loginFailure": 2.0,
        },
    )


def _noise_rates(high_scale: float, body_scale: float) -> tuple[NoiseSpec, ...]:
    """Background noise catalog.

    The *high* group are informational subcategories that never participate
    in chain bodies — pure volume and window-occupancy pressure.  The *body*
    group are multi-item-body precursors occurring alone at low rates: their
    coincidental co-occurrence is what erodes rule precision as the
    prediction window grows (Figure 4's declining trend).  Single-item-body
    precursors (``coredumpCreated``, ``nodeMapFileError``, ...) deliberately
    have **no** background rate: any solo occurrence would fire the mined
    rule unconditionally, which would disconnect realized precision from the
    planted chain confidence.

    Total unique non-fatal rate at ``high_scale=body_scale=1`` is ~42/day —
    matching the post-compression density of the real logs, where the paper
    finds 31-66 % of failures have a completely empty look-back window.
    """
    high = {
        "timerInterruptInfo": 7.0,
        "debugInterruptInfo": 3.5,
        "kernelStartInfo": 2.5,
        "kernelShutdownInfo": 2.5,
        "torusConnectionErrorInfo": 2.0,
        "appChildKillInfo": 2.0,
        "appReadError": 1.2,
        "appArgumentError": 0.8,
        "syscallError": 1.6,
        "supervisorModeError": 0.8,
        "contextSwitchError": 0.8,
        "l1CacheError": 2.0,
        "dmaError": 1.6,
        "prefetchBufferError": 1.2,
        "nodecardAssemblyWarning": 0.8,
        "nodecardClockError": 0.4,
        "nodecardInitInfo": 1.2,
        "midplaneSwitchError": 0.6,
        "serviceCardError": 0.6,
        "tempSensorWarning": 1.2,
        "clockCardError": 0.4,
        "monitorCheckInfo": 1.5,
        "CMCSControlInfo": 1.2,
        "linkcardServiceWarning": 0.8,
    }
    body = {
        "ddrErrorCorrectionInfo": 0.5,
        "maskInfo": 0.4,
        "ciodRestartInfo": 0.4,
        "midplaneStartInfo": 0.4,
        "controlNetworkInfo": 0.5,
        "nodecardVPDMismatch": 0.3,
        "nodecardFunctionalityWarning": 0.4,
        "midplaneLinkcardRestartWarning": 0.3,
        "nodecardAssemblySevereDiscovery": 0.15,
        "nodecardDiscoveryError": 0.3,
        "endServiceWarning": 0.4,
        "BGLMasterRestartInfo": 0.3,
        "watchdogTimerWarning": 0.4,
        "kernelAssertError": 0.3,
        "interruptVectorError": 0.3,
        "kernelModeError": 0.4,
        "sramParityError": 0.4,
        "l2CacheError": 0.4,
        "ddrSingleSymbolInfo": 0.4,
        "scrubCorrectionInfo": 0.4,
        "l3CacheError": 0.3,
        "ciodIoWarning": 0.5,
        "socketCloseError": 0.4,
        "fileReadError": 0.4,
        "torusSenderError": 0.4,
        "torusReceiverError": 0.3,
        "memoryLeakWarning": 0.3,
        "pageAllocationError": 0.3,
        "appExitWarning": 0.4,
        "appSignalError": 0.3,
        "nodecardTempWarning": 0.3,
        "nodecardPowerError": 0.2,
        "fanSpeedWarning": 0.4,
        "powerSupplyError": 0.3,
        "midplaneServiceWarning": 0.3,
    }
    specs = [
        NoiseSpec(name, rate * high_scale) for name, rate in high.items()
    ] + [
        NoiseSpec(name, rate * body_scale) for name, rate in body.items()
    ]
    return tuple(specs)


_PROFILES = {"ANL": anl_profile, "SDSC": sdsc_profile}


def profile_by_name(name: str) -> SystemProfile:
    """Look up a built-in profile by (case-insensitive) name."""
    try:
        return _PROFILES[name.upper()]()
    except KeyError:
        raise KeyError(
            f"unknown profile {name!r}; available: {sorted(_PROFILES)}"
        ) from None
