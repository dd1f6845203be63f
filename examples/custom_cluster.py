"""Extend the framework to a hypothetical non-Blue-Gene cluster.

The paper's summary: "we believe the proposed three-phase framework can be
extended for general failure analysis and prediction in other large-scale
clusters".  This example builds a *custom* system profile — a 4-rack machine
with its own failure modes, workload and duplication behaviour — and runs
the unchanged pipeline on it:

- a custom :class:`MachineSpec` (4 racks, I/O-lean);
- custom chain templates (a disk-array failure mode and a fabric failure
  mode) on top of two catalog patterns;
- heavier storms than either paper system.

Run:  python examples/custom_cluster.py
"""

from repro import LogGenerator, ThreePhasePredictor
from repro.bgl.cmcs import DuplicationModel
from repro.bgl.topology import MachineSpec
from repro.evaluation import PredictorSpec, cross_validate
from repro.meta.stacked import MetaLearner
from repro.synth.chains import ChainTemplate, default_chain_templates
from repro.synth.profiles import BurstConfig, SystemProfile, WorkloadConfig, _noise_rates
from repro.taxonomy.categories import MainCategory
from repro.util.timeutil import MINUTE


def build_profile() -> SystemProfile:
    """A 4-rack, I/O-lean research cluster with its own failure mix."""
    _ = MainCategory
    custom_chains = default_chain_templates(
        confidence_scale=1.1,
        body_span=9 * MINUTE,
        head_lag=(30.0, 150.0),
        weight_overrides={
            # This cluster's dominant failure modes: fabric and memory.
            "torus-sendrecv": 12.0,
            "sram-parity": 6.0,
        },
    ) + [
        # A failure mode the paper systems don't have: thermal runaway on
        # service hardware escalating to bulk power loss.
        ChainTemplate(
            key="thermal-runaway",
            body=("tempSensorWarning", "fanSpeedWarning", "powerSupplyError"),
            head="bulkPowerFailure",
            confidence=0.9,
            body_span=12 * MINUTE,
            head_lag=(60.0, 300.0),
            weight=5.0,
        ),
    ]
    return SystemProfile(
        name="RESEARCH-4R",
        machine=MachineSpec(racks=4, io_nodes_per_nodecard=1),
        start_epoch=1_000_000_000,
        days=200.0,
        fatal_budget={
            _.APPLICATION: 300, _.IOSTREAM: 350, _.KERNEL: 250,
            _.MEMORY: 220, _.MIDPLANE: 60, _.NETWORK: 500,
            _.NODECARD: 30, _.OTHER: 160,
        },
        chain_fraction={
            _.APPLICATION: 0.5, _.IOSTREAM: 0.3, _.KERNEL: 0.6,
            _.MEMORY: 0.7, _.MIDPLANE: 0.7, _.NETWORK: 0.4,
            _.NODECARD: 0.6, _.OTHER: 0.8,
        },
        burst_fraction={
            _.APPLICATION: 0.1, _.IOSTREAM: 0.5, _.KERNEL: 0.1,
            _.MEMORY: 0.0, _.MIDPLANE: 0.0, _.NETWORK: 0.45,
            _.NODECARD: 0.0, _.OTHER: 0.0,
        },
        chains=custom_chains,
        burst=BurstConfig(mean_cluster_size=12.0, lag=(4 * MINUTE, 30 * MINUTE)),
        noise=_noise_rates(high_scale=0.6, body_scale=0.8),
        duplication=DuplicationModel(
            mean_reporting_chips=48.0, mean_repeats=1.5
        ),
        workload=WorkloadConfig(mean_interarrival=900.0, p_full_machine=0.1),
        chain_burst_anchor_fraction=0.3,
    )


def main() -> None:
    profile = build_profile()
    print(f"=== custom cluster: {profile.name} "
          f"({profile.machine.compute_nodes} nodes, "
          f"{profile.machine.racks} racks) ===")
    log = LogGenerator(profile, scale=0.3, seed=5).generate()
    events = ThreePhasePredictor().preprocess(log.raw).events
    print(f"{log.n_raw:,} raw records -> {len(events):,} unique events, "
          f"{len(events.fatal_events())} failures")

    # The unchanged pipeline adapts: triggers and rules are learned from
    # this cluster's own data.
    cv = cross_validate(
        PredictorSpec.meta(
            prediction_window=30 * MINUTE, rule_window=15 * MINUTE
        ),
        events, k=5,
    )
    print(f"\nmeta-learner (5-fold CV): precision={cv.precision:.3f} "
          f"recall={cv.recall:.3f}")

    meta = MetaLearner(
        prediction_window=30 * MINUTE, rule_window=15 * MINUTE
    ).fit(events)
    print(f"learned triggers: "
          f"{[c.value for c in meta.statistical.trigger_categories]}")
    print("\ntop rules discovered on this cluster:")
    print(meta.rulebased.ruleset.format_rules(limit=8))
    text = meta.rulebased.ruleset.format_rules()
    if "bulkPowerFailure" in text:
        print("\nnote the thermal-runaway mode surfacing as a mined rule — "
              "the framework discovered a failure chain the paper never saw.")


if __name__ == "__main__":
    main()
