"""Compatibility helpers for the public Loghub/USENIX BG/L dump.

The production logs the paper uses were later published (Oliner & Stearley,
DSN'07; redistributed by the Loghub project as ``BGL.log``).  The dump's
line format is already handled by :mod:`repro.ras.logfile`'s LOGHUB dialect;
this module adds the dataset-specific knowledge:

- the dump's **alert category tags** (first token; ``-`` means non-alert)
  with their documented meanings and a mapping to our main categories, so a
  real log can be sanity-checked against the classifier;
- :func:`diagnose_store` — dataset statistics (tag histogram, severity mix,
  classification coverage) to run before feeding a real dump through the
  pipeline;
- :func:`synthesize_job_ids` — the public dump strips JOB_IDs, which both
  compression steps key on.  This reconstructs surrogate job ids by
  assigning each record to the machine-state epoch it falls into (epochs
  split at gaps with no events anywhere — a conservative stand-in
  documented by Liang et al.'s filtering study, which faced the same gap).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ras.store import EventStore
from repro.taxonomy.categories import MainCategory
from repro.taxonomy.classifier import OTHER_FALLBACK, TaxonomyClassifier

#: Alert category tags of the public BG/L dump with their documented
#: meaning and the main category they correspond to in our taxonomy.
ALERT_CATEGORIES: dict[str, tuple[str, MainCategory]] = {
    "KERNDTLB": ("data TLB error interrupt", MainCategory.KERNEL),
    "KERNSTOR": ("data storage interrupt", MainCategory.KERNEL),
    "KERNMNTF": ("lustre mount failure", MainCategory.IOSTREAM),
    "KERNTERM": ("rts abnormal termination", MainCategory.NETWORK),
    "KERNREC": ("error recovery", MainCategory.KERNEL),
    "KERNRTSP": ("rts panic", MainCategory.NETWORK),
    "KERNSOCK": ("socket closed", MainCategory.IOSTREAM),
    "KERNPOW": ("power problem", MainCategory.OTHER),
    "APPREAD": ("application read failure", MainCategory.APPLICATION),
    "APPSEV": ("application severe error", MainCategory.APPLICATION),
    "APPOUT": ("application output failure", MainCategory.APPLICATION),
    "APPBUSY": ("application busy resource", MainCategory.APPLICATION),
    "APPTO": ("application timeout", MainCategory.APPLICATION),
    "APPUNAV": ("application resource unavailable", MainCategory.APPLICATION),
    "MASABNL": ("bglmaster abnormal exit", MainCategory.OTHER),
    "MASNORM": ("bglmaster normal shutdown", MainCategory.OTHER),
    "MONNULL": ("monitor null value", MainCategory.OTHER),
    "MONPOW": ("monitor power issue", MainCategory.OTHER),
    "LINKDISC": ("link card discovery error", MainCategory.MIDPLANE),
    "LINKIAP": ("link card IAP failure", MainCategory.MIDPLANE),
    "LINKPAP": ("link card PAP failure", MainCategory.MIDPLANE),
    "LINKBLL": ("link card BLL failure", MainCategory.MIDPLANE),
}

#: Tag used by the dump for non-alert (informational) records.
NON_ALERT_TAG = "-"


def diagnose_store(
    store: EventStore, classifier: Optional[TaxonomyClassifier] = None
) -> dict:
    """Pre-flight statistics before running a real dump through Phase 1.

    Returns record/severity counts, the classifier's coverage (fraction of
    records whose ENTRY_DATA matched a known subcategory), and the job-id
    situation (the public dump has none).
    """
    classifier = classifier or TaxonomyClassifier()
    labeled = classifier.classify_store(store)
    counts = labeled.subcat_counts()
    classified = sum(v for k, v in counts.items() if k != OTHER_FALLBACK)
    n = len(store)
    return {
        "records": n,
        "span_days": store.span_seconds() / 86400.0 if n else 0.0,
        "severities": {
            sev.name: c for sev, c in store.severity_counts().items() if c
        },
        "classified_fraction": classified / n if n else 0.0,
        "distinct_messages": len(store.entry_table),
        "has_job_ids": bool(n) and bool(np.any(store.jobs >= 0)),
        "fatal_records": int(store.fatal_mask().sum()),
    }


def synthesize_job_ids(
    store: EventStore, idle_gap: float = 6 * 3600.0
) -> EventStore:
    """Reconstruct surrogate JOB_IDs for a dump that lacks them.

    Compression keys on JOB_ID; with none, records from different jobs can
    merge.  Heuristic: machine activity between two system-wide quiet gaps
    of at least ``idle_gap`` seconds belongs to one occupation epoch; every
    record in an epoch receives that epoch's surrogate id.  Coarser than
    true job ids (it can merge concurrent jobs) but conservative in the
    direction compression cares about: records far apart in time never share
    an id.
    """
    if idle_gap <= 0:
        raise ValueError("idle_gap must be > 0")
    n = len(store)
    if n == 0:
        return store
    gaps = np.diff(store.times)
    epoch_ids = np.zeros(n, dtype=np.int64)
    epoch_ids[1:] = np.cumsum(gaps >= idle_gap)
    return EventStore(
        store.times,
        store.severities,
        store.facilities,
        epoch_ids + 1,  # ids start at 1; NO_JOB (-1) stays meaningful
        store.location_ids,
        store.entry_ids,
        store.subcat_ids,
        store._locations,
        store._entries,
        store._subcats,
    )
