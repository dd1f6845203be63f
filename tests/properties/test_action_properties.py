"""Property tests for the action engine's determinism contracts.

Three properties the subsystem documents and the benchmarks lean on:

1. the engine is a deterministic fold — the same events and warnings give a
   byte-identical ledger digest, whether replayed twice or fed in chunks at
   any split point (the serve-replay vs daemon bit-identity gate);
2. the cost-aware composite never schedules an action whose expected value
   is not strictly positive;
3. the stream job view's midplane index of live jobs answers every query
   as a scan of every job record would, job ids recurring after their TTL
   included.
"""

from hypothesis import given, settings, strategies as st

from repro.actions.cost import CostModel
from repro.actions.engine import ActionEngine
from repro.actions.jobview import StreamJobView
from repro.actions.policy import CostAwarePolicy, PolicyContext
from repro.predictors.base import FailureWarning
from repro.ras.fields import Severity
from repro.ras.store import EventStore
from repro.util.rng import as_generator
from tests.conftest import make_event
from tests.oracles import ScanJobView

LOCATIONS = (
    "R00-M0-N00-C00",
    "R00-M0-N07-C01",
    "R00-M1-N00-C00",
    "R01-M0-N00-C00",
)


@st.composite
def scenarios(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    t = 0
    events = []
    for _ in range(n):
        t += draw(st.integers(min_value=1, max_value=1800))
        fatal = draw(st.booleans())
        events.append(
            make_event(
                time=t,
                location=draw(st.sampled_from(LOCATIONS)),
                job_id=draw(st.integers(min_value=-1, max_value=4)),
                severity=Severity.FATAL if fatal else Severity.INFO,
                entry="kernel panic: unrecoverable" if fatal else "info",
            )
        )
    warnings = []
    for i in range(draw(st.integers(min_value=0, max_value=5))):
        issued = draw(st.integers(min_value=0, max_value=t))
        start = issued + draw(st.integers(min_value=0, max_value=600))
        width = draw(st.integers(min_value=1, max_value=7200))
        warnings.append(
            FailureWarning(
                issued_at=issued,
                horizon_start=start,
                horizon_end=start + width,
                confidence=draw(
                    st.floats(min_value=0.0, max_value=1.0,
                              allow_nan=False)
                ),
                source="meta",
                detail=f"w{i}",
            )
        )
    return events, warnings


def _run(events, warnings, *, splits=()):
    engine = ActionEngine(CostAwarePolicy(), CostModel(), seed=11)
    bounds = [0, *splits, len(events)]
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        engine.observe_store(
            EventStore.from_events(events[lo:hi]),
            list(warnings) if i == 0 else [],
        )
    return engine.finalize()


@given(scenarios())
@settings(max_examples=50, deadline=None)
def test_replay_is_deterministic(scenario):
    events, warnings = scenario
    assert _run(events, warnings).digest() == _run(events, warnings).digest()


@given(scenarios(), st.data())
@settings(max_examples=50, deadline=None)
def test_chunked_feed_is_digest_identical(scenario, data):
    events, warnings = scenario
    split = data.draw(
        st.integers(min_value=0, max_value=len(events)), label="split"
    )
    assert (
        _run(events, warnings, splits=(split,)).digest()
        == _run(events, warnings).digest()
    )


@st.composite
def contexts(draw):
    view = StreamJobView()
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        view.observe(
            draw(st.integers(min_value=0, max_value=5000)),
            draw(st.sampled_from(LOCATIONS)),
            draw(st.integers(min_value=-1, max_value=3)),
        )
    now = draw(st.integers(min_value=0, max_value=10_000))
    start = now + draw(st.integers(min_value=0, max_value=600))
    warning = FailureWarning(
        issued_at=now,
        horizon_start=start,
        horizon_end=start + draw(st.integers(min_value=1, max_value=7200)),
        confidence=draw(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
        ),
        source="meta",
        detail="w",
    )
    return PolicyContext(
        warning=warning,
        now=now,
        view=view,
        cost=CostModel(),
        rng=as_generator(0),
        hot_midplane=draw(st.integers(min_value=-1, max_value=2)),
    )


@given(contexts())
@settings(max_examples=100, deadline=None)
def test_cost_aware_never_schedules_negative_expected_value(ctx):
    decided = CostAwarePolicy().decide(ctx)
    for action in decided:
        assert action.expected_value > 0.0
    # At most one remedy per job scope, one cordon per midplane scope.
    scopes = [
        ("mp", a.midplane) if a.kind == "quarantine" else ("job", a.job_id)
        for a in decided
    ]
    assert len(scopes) == len(set(scopes))


#: Job liveness window of the job-view property: short against the time
#: steps, so job ids recur after their TTL.
TTL = 300


@st.composite
def view_scripts(draw):
    """Observations at a mostly advancing clock, queries and kills."""
    ops, clock = [], 0
    for _ in range(draw(st.integers(min_value=1, max_value=60))):
        op = draw(st.sampled_from(("observe", "observe", "observe", "query", "forget")))
        if op == "observe":
            clock += draw(st.integers(min_value=-20, max_value=2 * TTL))
            ops.append((op, clock, draw(st.sampled_from(LOCATIONS + ("", "SYSTEM"))),
                        draw(st.integers(min_value=-1, max_value=5))))
        elif op == "query":
            # Mostly at the clock, as the engine asks; sometimes before the
            # last sweep or past every TTL.
            ops.append((op, clock + draw(st.sampled_from((0, 0, 0, -TTL, -3 * TTL, 3 * TTL)))))
        else:
            ops.append((op, draw(st.integers(min_value=0, max_value=5))))
    return ops


@given(view_scripts())
@settings(max_examples=200, deadline=None)
def test_stream_view_queries_equal_full_scan(ops):
    """The midplane-indexed live jobs answer as a scan of every record."""
    view, scan = StreamJobView(ttl_seconds=TTL), ScanJobView(ttl_seconds=TTL)
    for op, *args in ops:
        if op == "observe":
            view.observe(*args)
            scan.observe(*args)
        elif op == "forget":
            view.forget(*args)
            scan.forget(*args)
        else:
            (now,) = args
            assert view.running(now) == scan.running(now)
            for mp in range(-1, len(scan.mp_index) + 1):
                assert view.occupant(mp, now) == scan.occupant(mp, now)
    assert view.n_midplanes() == max(len(scan.mp_index), 1)
