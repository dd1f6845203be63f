"""The 101-subcategory RAS event catalog (paper Table 3).

Each :class:`Subcategory` entry couples everything the rest of the system
needs to know about one kind of event:

- its **main category** (one of the 8 subsystems) and **name** — the item
  vocabulary of the rule miner and the label space of the classifier;
- the **severity** it is recorded at (fatal subcategories are the prediction
  targets);
- the **facility** that reports it and the **hardware level** it occurs at
  (used by the synthetic generator to produce realistic LOCATION values);
- **message templates** — realistic ENTRY_DATA strings emitted by the
  generator; and
- a **match pattern**, the distinctive phrase the hierarchical classifier
  looks for in ENTRY_DATA.  Every template of a subcategory contains its
  pattern, and patterns are unique across the catalog (validated by
  :func:`validate_catalog` and enforced in tests).

Subcategory counts per main category match the paper exactly:
Application 12, Iostream 8, Kernel 20, Memory 22, Midplane 6, Network 11,
NodeCard 10, Other 12 — 101 in total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.bgl.locations import LocationKind
from repro.ras.fields import Facility, Severity
from repro.taxonomy.categories import MainCategory


@dataclass(frozen=True)
class Subcategory:
    """One of the 101 fine-grained RAS event types."""

    name: str
    category: MainCategory
    severity: Severity
    facility: Facility
    location_kind: LocationKind
    pattern: str
    templates: tuple[str, ...]

    @property
    def is_fatal(self) -> bool:
        """True if events of this subcategory are failures."""
        return self.severity.is_fatal

    def __post_init__(self) -> None:
        if not self.templates:
            raise ValueError(f"{self.name}: at least one template required")
        low = self.pattern.lower()
        for t in self.templates:
            if low not in t.lower():
                raise ValueError(
                    f"{self.name}: template {t!r} does not contain pattern {low!r}"
                )


def _sc(
    name: str,
    category: MainCategory,
    severity: Severity,
    facility: Facility,
    kind: LocationKind,
    pattern: str,
    *extra_templates: str,
) -> Subcategory:
    """Catalog entry helper: the pattern itself is the first template."""
    return Subcategory(
        name=name,
        category=category,
        severity=severity,
        facility=facility,
        location_kind=kind,
        pattern=pattern,
        templates=(pattern, *extra_templates),
    )


_APP = MainCategory.APPLICATION
_IO = MainCategory.IOSTREAM
_KRN = MainCategory.KERNEL
_MEM = MainCategory.MEMORY
_MID = MainCategory.MIDPLANE
_NET = MainCategory.NETWORK
_NC = MainCategory.NODECARD
_OTH = MainCategory.OTHER

_I, _W, _S, _E, _F, _X = (
    Severity.INFO,
    Severity.WARNING,
    Severity.SEVERE,
    Severity.ERROR,
    Severity.FATAL,
    Severity.FAILURE,
)

_CHIP = LocationKind.COMPUTE_CHIP
_ION = LocationKind.IO_NODE
_CARD = LocationKind.NODECARD
_MPL = LocationKind.MIDPLANE
_LNK = LocationKind.LINKCARD
_SVC = LocationKind.SERVICE_CARD
_SYS = LocationKind.SYSTEM


CATALOG: tuple[Subcategory, ...] = (
    # ------------------------------------------------------------------ #
    # APPLICATION (12)
    # ------------------------------------------------------------------ #
    _sc("loadProgramFailure", _APP, _F, Facility.APP, _CHIP,
        "load program failure: invalid or missing program image",
        "load program failure: invalid or missing program image, while reading elf header"),
    _sc("loginFailure", _APP, _F, Facility.APP, _CHIP,
        "login failure: cannot connect to service node for authentication"),
    _sc("nodeMapCreateFailure", _APP, _F, Facility.APP, _CHIP,
        "failed to create node map: mapping table rejected"),
    _sc("appOutOfMemoryFailure", _APP, _F, Facility.APP, _CHIP,
        "application out of memory: heap allocation failed"),
    _sc("nodeMapFileError", _APP, _E, Facility.APP, _CHIP,
        "cannot open node map file: permission denied or missing"),
    _sc("nodeMapError", _APP, _E, Facility.APP, _CHIP,
        "bad node map format: coordinate out of range"),
    _sc("appReadError", _APP, _E, Facility.APP, _CHIP,
        "error reading message prefix on application stream"),
    _sc("coredumpCreated", _APP, _I, Facility.APP, _CHIP,
        "core dump file created for job",
        "core dump file created for job after abnormal termination"),
    _sc("appChildKillInfo", _APP, _I, Facility.APP, _CHIP,
        "child process killed by delivered signal"),
    _sc("appSignalError", _APP, _E, Facility.APP, _CHIP,
        "application received unexpected signal from runtime"),
    _sc("appExitWarning", _APP, _W, Facility.APP, _CHIP,
        "application exited with nonzero status code"),
    _sc("appArgumentError", _APP, _E, Facility.APP, _CHIP,
        "invalid application argument vector supplied at launch"),
    # ------------------------------------------------------------------ #
    # IOSTREAM (8)
    # ------------------------------------------------------------------ #
    _sc("socketReadFailure", _IO, _X, Facility.KERNEL, _ION,
        "communication failure on socket read: connection closed by peer",
        "communication failure on socket read: connection closed by peer during ciod protocol"),
    _sc("socketWriteFailure", _IO, _X, Facility.KERNEL, _ION,
        "communication failure on socket write: broken pipe"),
    _sc("streamReadFailure", _IO, _X, Facility.KERNEL, _ION,
        "stream read failure: lost connection to compute node"),
    _sc("streamWriteFailure", _IO, _X, Facility.KERNEL, _ION,
        "stream write failure: cannot flush output buffer"),
    _sc("mountFailure", _IO, _F, Facility.KERNEL, _ION,
        "failed to mount remote filesystem on i/o node"),
    _sc("socketCloseError", _IO, _E, Facility.KERNEL, _ION,
        "error closing socket descriptor: already shut down"),
    _sc("ciodIoWarning", _IO, _W, Facility.KERNEL, _ION,
        "ciod detected slow i/o progress on stream"),
    _sc("fileReadError", _IO, _E, Facility.KERNEL, _ION,
        "file read error on i/o procedure call"),
    # ------------------------------------------------------------------ #
    # KERNEL (20)
    # ------------------------------------------------------------------ #
    _sc("alignmentFailure", _KRN, _F, Facility.KERNEL, _CHIP,
        "alignment exception: unaligned data access trapped"),
    _sc("dataAddressFailure", _KRN, _F, Facility.KERNEL, _CHIP,
        "data storage interrupt: invalid data address referenced"),
    _sc("instructionAddressFailure", _KRN, _F, Facility.KERNEL, _CHIP,
        "instruction storage interrupt: invalid instruction fetch"),
    _sc("kernelPanicFailure", _KRN, _X, Facility.KERNEL, _CHIP,
        "kernel panic: unrecoverable condition detected"),
    _sc("floatingPointFailure", _KRN, _F, Facility.KERNEL, _CHIP,
        "floating point exception: unhandled fpu trap"),
    _sc("programInterruptFailure", _KRN, _F, Facility.KERNEL, _CHIP,
        "program interrupt: illegal instruction encountered"),
    _sc("machineCheckFailure", _KRN, _X, Facility.KERNEL, _CHIP,
        "machine check interrupt: hardware detected inconsistency"),
    _sc("kernelStackFailure", _KRN, _F, Facility.KERNEL, _CHIP,
        "kernel stack overflow detected in interrupt context"),
    _sc("watchdogTimerWarning", _KRN, _W, Facility.KERNEL, _CHIP,
        "watchdog timer approaching expiration"),
    _sc("kernelModeError", _KRN, _E, Facility.KERNEL, _CHIP,
        "unexpected exception while executing in kernel mode"),
    _sc("supervisorModeError", _KRN, _E, Facility.KERNEL, _CHIP,
        "privileged operation attempted outside supervisor mode"),
    _sc("tlbMissError", _KRN, _E, Facility.KERNEL, _CHIP,
        "tlb miss handler: invalid page translation entry"),
    _sc("debugInterruptInfo", _KRN, _I, Facility.KERNEL, _CHIP,
        "debug interrupt serviced and cleared"),
    _sc("kernelAssertError", _KRN, _E, Facility.KERNEL, _CHIP,
        "kernel assertion failed: internal consistency check"),
    _sc("syscallError", _KRN, _E, Facility.KERNEL, _CHIP,
        "invalid system call number requested by application"),
    _sc("interruptVectorError", _KRN, _E, Facility.KERNEL, _CHIP,
        "spurious interrupt vector received and ignored"),
    _sc("timerInterruptInfo", _KRN, _I, Facility.KERNEL, _CHIP,
        "timer interrupt rollover serviced"),
    _sc("kernelStartInfo", _KRN, _I, Facility.KERNEL, _CHIP,
        "kernel boot sequence started on compute node"),
    _sc("kernelShutdownInfo", _KRN, _I, Facility.KERNEL, _CHIP,
        "kernel shutdown sequence initiated by control system"),
    _sc("contextSwitchError", _KRN, _E, Facility.KERNEL, _CHIP,
        "context switch error: corrupted thread state detected"),
    # ------------------------------------------------------------------ #
    # MEMORY (22)
    # ------------------------------------------------------------------ #
    _sc("cachePrefetchFailure", _MEM, _F, Facility.KERNEL, _CHIP,
        "uncorrectable error in cache prefetch unit"),
    _sc("dataReadFailure", _MEM, _F, Facility.KERNEL, _CHIP,
        "uncorrectable error detected on data read"),
    _sc("dataStoreFailure", _MEM, _F, Facility.KERNEL, _CHIP,
        "uncorrectable error detected on data store"),
    _sc("parityFailure", _MEM, _X, Facility.KERNEL, _CHIP,
        "parity error beyond correction threshold"),
    _sc("cacheFailure", _MEM, _X, Facility.KERNEL, _CHIP,
        "cache failure: coherence lost in cache directory"),
    _sc("edramFailure", _MEM, _X, Facility.KERNEL, _CHIP,
        "uncorrectable error detected in edram bank"),
    _sc("ddrDoubleSymbolFailure", _MEM, _F, Facility.KERNEL, _CHIP,
        "double symbol error detected on ddr chip"),
    _sc("memoryControllerFailure", _MEM, _F, Facility.KERNEL, _CHIP,
        "memory controller failure: request queue hung"),
    _sc("storeQueueFailure", _MEM, _F, Facility.KERNEL, _CHIP,
        "store queue failure: entry stuck beyond timeout"),
    _sc("ddrErrorCorrectionInfo", _MEM, _I, Facility.KERNEL, _CHIP,
        "ddr error correction: single bit error corrected by ecc",
        "ddr error correction: single bit error corrected by ecc, steering activated"),
    _sc("maskInfo", _MEM, _I, Facility.KERNEL, _CHIP,
        "interrupt mask register updated for memory unit"),
    _sc("sramParityError", _MEM, _E, Facility.KERNEL, _CHIP,
        "sram parity error corrected by scrubber"),
    _sc("l1CacheError", _MEM, _E, Facility.KERNEL, _CHIP,
        "l1 cache error: line invalidated and refetched"),
    _sc("l2CacheError", _MEM, _E, Facility.KERNEL, _CHIP,
        "l2 cache error: access retry succeeded"),
    _sc("l3CacheError", _MEM, _E, Facility.KERNEL, _CHIP,
        "l3 cache error: directory scrub corrected entry"),
    _sc("scrubCorrectionInfo", _MEM, _I, Facility.KERNEL, _CHIP,
        "memory scrub cycle completed with corrections"),
    _sc("dmaError", _MEM, _E, Facility.KERNEL, _CHIP,
        "dma transfer error: descriptor retried"),
    _sc("ddrSingleSymbolInfo", _MEM, _I, Facility.KERNEL, _CHIP,
        "single symbol error detected and corrected on ddr"),
    _sc("memoryAlignmentError", _MEM, _E, Facility.KERNEL, _CHIP,
        "misaligned memory reference corrected in software"),
    _sc("prefetchBufferError", _MEM, _E, Facility.KERNEL, _CHIP,
        "prefetch buffer overrun detected and drained"),
    _sc("memoryLeakWarning", _MEM, _W, Facility.KERNEL, _CHIP,
        "kernel memory pool running low on free blocks"),
    _sc("pageAllocationError", _MEM, _E, Facility.KERNEL, _CHIP,
        "page allocation error: no free frames available"),
    # ------------------------------------------------------------------ #
    # MIDPLANE (6)
    # ------------------------------------------------------------------ #
    _sc("linkcardFailure", _MID, _X, Facility.LINKCARD, _LNK,
        "link card failure: link chip lost heartbeat"),
    _sc("ciodSignalFailure", _MID, _F, Facility.MMCS, _MPL,
        "ciod terminated by signal on midplane"),
    _sc("midplaneServiceWarning", _MID, _W, Facility.MMCS, _SVC,
        "midplane service action in progress"),
    _sc("midplaneStartInfo", _MID, _I, Facility.MMCS, _MPL,
        "midplane power-on sequence started"),
    _sc("midplaneLinkcardRestartWarning", _MID, _W, Facility.LINKCARD, _LNK,
        "link card restart requested by midplane controller"),
    _sc("midplaneSwitchError", _MID, _E, Facility.MMCS, _MPL,
        "midplane switch port reported invalid state"),
    # ------------------------------------------------------------------ #
    # NETWORK (11)
    # ------------------------------------------------------------------ #
    _sc("torusFailure", _NET, _X, Facility.KERNEL, _CHIP,
        "uncorrectable torus error: retransmission limit exceeded"),
    _sc("rtsFailure", _NET, _F, Facility.KERNEL, _CHIP,
        "rts internal failure: panic in message layer"),
    _sc("rtsLinkFailure", _NET, _F, Facility.KERNEL, _CHIP,
        "rts link failure: lost contact with neighbor node"),
    _sc("ethernetFailure", _NET, _X, Facility.KERNEL, _ION,
        "ethernet failure: functional network interface down"),
    _sc("nodeConnectionFailure", _NET, _F, Facility.MMCS, _CARD,
        "node connection failure: control network session dropped"),
    _sc("treeNetworkFailure", _NET, _F, Facility.KERNEL, _CHIP,
        "tree network failure: collective packet checksum invalid"),
    _sc("torusConnectionErrorInfo", _NET, _I, Facility.KERNEL, _CHIP,
        "torus connection reestablished after transient error"),
    _sc("controlNetworkNMCSError", _NET, _E, Facility.MMCS, _MPL,
        "nmcs reported control network error on service bus"),
    _sc("controlNetworkInfo", _NET, _I, Facility.MMCS, _MPL,
        "control network polling cycle completed"),
    _sc("torusSenderError", _NET, _E, Facility.KERNEL, _CHIP,
        "torus sender retransmitted packet after timeout"),
    _sc("torusReceiverError", _NET, _E, Facility.KERNEL, _CHIP,
        "torus receiver detected crc mismatch on packet"),
    # ------------------------------------------------------------------ #
    # NODECARD (10)
    # ------------------------------------------------------------------ #
    _sc("nodecardFailure", _NC, _X, Facility.DISCOVERY, _CARD,
        "node card failure: power domain fault"),
    _sc("nodecardDiscoveryError", _NC, _E, Facility.DISCOVERY, _CARD,
        "discovery error while probing node card"),
    _sc("nodecardAssemblyWarning", _NC, _W, Facility.DISCOVERY, _CARD,
        "node card assembly information incomplete"),
    _sc("nodecardAssemblySevereDiscovery", _NC, _S, Facility.DISCOVERY, _CARD,
        "severe discovery problem: node card assembly mismatch"),
    _sc("nodecardVPDMismatch", _NC, _W, Facility.DISCOVERY, _CARD,
        "node card vpd mismatch with configuration database"),
    _sc("nodecardFunctionalityWarning", _NC, _W, Facility.DISCOVERY, _CARD,
        "node card functionality degraded: redundant path active"),
    _sc("nodecardPowerError", _NC, _E, Facility.MONITOR, _CARD,
        "node card power rail out of tolerance"),
    _sc("nodecardTempWarning", _NC, _W, Facility.MONITOR, _CARD,
        "node card temperature above warning threshold"),
    _sc("nodecardClockError", _NC, _E, Facility.HARDWARE, _CARD,
        "node card clock signal unstable"),
    _sc("nodecardInitInfo", _NC, _I, Facility.DISCOVERY, _CARD,
        "node card initialization completed"),
    # ------------------------------------------------------------------ #
    # OTHER (12)
    # ------------------------------------------------------------------ #
    _sc("bulkPowerFailure", _OTH, _X, Facility.HARDWARE, _SVC,
        "bulk power module failure: output collapsed"),
    _sc("BGLMasterRestartInfo", _OTH, _I, Facility.BGLMASTER, _SYS,
        "bglmaster restarted idoproxydb and mmcs server"),
    _sc("CMCSControlInfo", _OTH, _I, Facility.CMCS, _SYS,
        "cmcs control command processed"),
    _sc("linkcardServiceWarning", _OTH, _W, Facility.LINKCARD, _LNK,
        "link card service action scheduled"),
    _sc("endServiceWarning", _OTH, _W, Facility.MMCS, _SYS,
        "end service action issued for hardware"),
    _sc("ciodRestartInfo", _OTH, _I, Facility.CMCS, _SYS,
        "ciod daemon restarted on i/o nodes"),
    _sc("serviceCardError", _OTH, _E, Facility.MONITOR, _SVC,
        "service card reported configuration error"),
    _sc("fanSpeedWarning", _OTH, _W, Facility.MONITOR, _SVC,
        "fan speed below nominal rpm"),
    _sc("powerSupplyError", _OTH, _E, Facility.MONITOR, _SVC,
        "power supply voltage deviation detected"),
    _sc("tempSensorWarning", _OTH, _W, Facility.MONITOR, _SVC,
        "temperature sensor reading above warning level"),
    _sc("clockCardError", _OTH, _E, Facility.HARDWARE, _SVC,
        "clock card pll lost lock"),
    _sc("monitorCheckInfo", _OTH, _I, Facility.MONITOR, _SYS,
        "environmental monitor sweep completed"),
)


#: name -> Subcategory lookup.
_BY_NAME: dict[str, Subcategory] = {sc.name: sc for sc in CATALOG}

#: Fatal subcategories (the prediction targets).
FATAL_SUBCATS: tuple[Subcategory, ...] = tuple(sc for sc in CATALOG if sc.is_fatal)

#: Non-fatal subcategories (the precursor vocabulary).
NONFATAL_SUBCATS: tuple[Subcategory, ...] = tuple(
    sc for sc in CATALOG if not sc.is_fatal
)


def by_name(name: str) -> Subcategory:
    """Look up a subcategory by its name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown subcategory: {name!r}") from None


def by_category(category: MainCategory) -> tuple[Subcategory, ...]:
    """All subcategories of one main category, catalog order."""
    return tuple(sc for sc in CATALOG if sc.category is category)


def validate_catalog(catalog: Iterable[Subcategory] = CATALOG) -> None:
    """Check catalog invariants; raises ``ValueError`` on violation.

    - 101 entries with per-category counts matching paper Table 3;
    - unique names;
    - unique, mutually non-containing match patterns (so classification by
      substring is unambiguous).
    """
    catalog = list(catalog)
    expected = {
        MainCategory.APPLICATION: 12,
        MainCategory.IOSTREAM: 8,
        MainCategory.KERNEL: 20,
        MainCategory.MEMORY: 22,
        MainCategory.MIDPLANE: 6,
        MainCategory.NETWORK: 11,
        MainCategory.NODECARD: 10,
        MainCategory.OTHER: 12,
    }
    counts: dict[MainCategory, int] = {c: 0 for c in MainCategory}
    names: set[str] = set()
    for sc in catalog:
        counts[sc.category] += 1
        if sc.name in names:
            raise ValueError(f"duplicate subcategory name: {sc.name}")
        names.add(sc.name)
    for cat, want in expected.items():
        if counts[cat] != want:
            raise ValueError(
                f"category {cat.value} has {counts[cat]} subcategories, "
                f"expected {want}"
            )
    if len(catalog) != 101:
        raise ValueError(f"catalog has {len(catalog)} entries, expected 101")
    patterns = [sc.pattern.lower() for sc in catalog]
    for i, p in enumerate(patterns):
        for j, q in enumerate(patterns):
            if i != j and p in q:
                raise ValueError(
                    f"pattern of {catalog[i].name!r} is contained in "
                    f"pattern of {catalog[j].name!r}"
                )
