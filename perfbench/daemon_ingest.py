"""``daemon-ingest``: open-loop wire load on a ``serve-daemon`` child.

Set-up generates the ANL profile, compresses it, fits the meta spec on the
head, saves the model, replicates the tail with time shifts into two
time-ordered streams and starts ``python -m repro.cli.main serve-daemon
--model ... --policy cost-aware`` as a child process.

The benchmark process is the load generator.  It pipelines ``batch``
frames over two connections (one stream each) and matches responses in
order.  Rounds of a latency part and a saturation burst alternate, then the
ladder runs; every part uses fresh stream ids:

1. *latency*: a fixed offered rate (:attr:`Config.fixed_rate`, a constant);
   each frame's latency runs from when it was due to its response;
2. *ladder*: rising offered rates; a rate is sustained when no event was
   refused BUSY, the sampled backlog did not grow and the latency tail
   stayed under :attr:`Config.latency_limit_ms`.  A step where the
   generator itself ran late is invalid and is run again (twice at most);
   the ladder ends at the first step that is not sustained;
3. *saturation*: a fixed batch sent as fast as responses allow, pipelined,
   with the client keeping the daemon's queue under its bound; throughput
   is the batch over the time until the daemon's backlog is empty.

The generator closes both connections, then SIGTERMs the daemon, which
drains and writes its ``--state`` file.  Correctness: every drained
stream's session statistics and ledger counters equal an in-process
``DetectorPool.process_store`` plus one-shot ``ActionEngine`` over the
same per-stream traffic, decoded from the frames that were sent.  That
replay is also the traced run's single-threaded baseline.
"""

from __future__ import annotations

import asyncio
import copy
import gc
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Optional

import common
from spans import OFF, Tracer


@dataclass(frozen=True)
class Config:
    #: Generator scale of the ANL profile (its tail is the traffic).
    scale: float = 0.05
    #: Events per ``batch`` frame.
    frame_events: int = 32
    #: Offered rate (events/s) of the latency part: a fixed constant.
    fixed_rate: float = 6000.0
    #: Share of ``--seconds`` the latency parts last, all rounds together.
    latency_share: float = 0.4
    #: Offered rates (events/s) of the ladder, lowest first.
    ladder: tuple = (5000.0, 10000.0, 15000.0, 20000.0, 25000.0, 30000.0, 35000.0,
                     40000.0, 45000.0, 50000.0)
    #: Share of ``--seconds`` one ladder step lasts.
    step_share: float = 0.05
    #: Rounds of (latency part, saturation burst); metrics are medians.
    rounds: int = 12
    #: Events of one saturation burst per second of ``--seconds``.
    saturation_events_per_s: int = 600
    #: Latency tail limit (ms) a sustained ladder rate must meet.
    latency_limit_ms: float = 50.0
    #: A step is invalid when the generator's p99 lateness exceeds this;
    #: invalid steps are re-run, at most this many times per run.
    late_limit_ms: float = 5.0
    step_retries: int = 2
    #: Daemon per-stream queue bound and worker chunk (its defaults).
    queue_bound: int = 4096
    chunk: int = 512
    #: Seconds between backlog samples (``health`` frames).
    sample_every: float = 0.05


CONFIG = Config()
TINY = Config(scale=0.01, fixed_rate=2000.0, ladder=(2000.0, 4000.0), saturation_events_per_s=1000)

#: The daemon's action prices: the CLI defaults.
PRICES = {"checkpoint_cost": 120.0, "migration_cost": 180.0, "restart_cost": 300.0}


# --------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------- #


@dataclass
class Inputs:
    model_path: str
    #: Per stream slot (a, b): the time-ordered wire payloads.
    payloads: tuple


def setup(seed: int, cfg: Config, workdir: str, longest: int) -> Inputs:
    """Generate, compress, fit and save; build two streams of ``longest``."""
    from repro.core.serialize import save_model
    from repro.evaluation.spec import PredictorSpec
    from repro.serve.client import partition_round_robin
    from repro.serve.protocol import event_to_dict

    gen = common.generate_anl(seed, cfg.scale)
    events = common.phase1(gen.raw).events
    cut = len(events) // 2
    meta = PredictorSpec.meta().build().fit(events.select(slice(0, cut)))
    model_path = os.path.join(workdir, "model.json")
    save_model(meta, model_path)
    tail = events.select(slice(cut, len(events)))
    traffic = common.replicate(tail, 2 * longest)
    parts = partition_round_robin(traffic, ["a", "b"])
    slots = (parts["a"], parts["b"])
    # A RAS source sends unlabelled records: the daemon classifies them.
    payloads = tuple(
        [{k: v for k, v in event_to_dict(ev).items() if k != "subcategory"} for ev in part]
        for part in slots
    )
    return Inputs(model_path, payloads)


def start_daemon(inputs: Inputs, cfg: Config, workdir: str, env: dict, tag: str):
    """Start ``serve-daemon``; returns (process, port, state path)."""
    state = os.path.join(workdir, f"state-{tag}.json")
    log = open(os.path.join(workdir, f"daemon-{tag}.err"), "w")
    cmd = [
        sys.executable, "-m", "repro.cli.main", "serve-daemon",
        "--model", inputs.model_path, "--policy", "cost-aware",
        "--port", "0", "--state", state, "--max-streams", "256",
        "--queue-bound", str(cfg.queue_bound), "--chunk", str(cfg.chunk),
    ]
    proc = subprocess.Popen(
        cmd, cwd=common.ROOT, env=env, stdout=subprocess.PIPE, stderr=log, text=True
    )
    log.close()
    line = proc.stdout.readline()
    if "listening on" not in line:
        stop_daemon(proc)
        raise RuntimeError(f"serve-daemon did not start: {line!r}")
    port = int(line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1])
    return proc, port, state


def stop_daemon(proc) -> tuple[int, float, str]:
    """SIGTERM (graceful drain) and reap; returns (exit code, peak RSS MiB, stdout)."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        rss = usage.ru_maxrss / 1024.0
    except ChildProcessError:  # already reaped by poll()
        rss = 0.0
    out = proc.stdout.read()
    proc.stdout.close()
    return proc.returncode, rss, out


# --------------------------------------------------------------------- #
# The open-loop generator
# --------------------------------------------------------------------- #


@dataclass
class Frame:
    kind: str                 # "batch" | "health" | "stats"
    slot: int = 0             # stream slot (0 = a, 1 = b)
    stream: str = ""
    start: int = 0            # first event index within the slot
    n: int = 0
    due: float = 0.0
    recv: float = 0.0
    response: Optional[dict] = None


class Conn:
    """One pipelined connection: writes frames, matches responses FIFO.

    It also tracks what flow control needs: events in flight, and the
    stream's queue depth as last reported by a response.
    """

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer
        self.pending: deque[Frame] = deque()
        self.arrived = asyncio.Event()
        self.in_flight = 0
        self.depth = 0
        self.task = asyncio.get_running_loop().create_task(self._read())

    def send(self, frame: Frame, data: bytes) -> None:
        self.pending.append(frame)
        self.in_flight += frame.n
        self.writer.write(data)

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                return
            frame = self.pending.popleft()
            frame.recv = perf_counter()
            frame.response = response = json.loads(line)
            self.in_flight -= frame.n
            if "queue_depth" in response:
                self.depth = int(response["queue_depth"])
            elif frame.kind == "stats" and response.get("ok"):
                counters = response["counters"]
                self.depth = counters["ingested"] - counters["processed"]
            self.arrived.set()

    async def next_response(self) -> None:
        self.arrived.clear()
        await self.arrived.wait()

    async def settle(self) -> None:
        """Wait until every sent frame has its response."""
        while self.pending:
            await self.next_response()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass
        await self.task


def encode_batch(stream: str, payloads: list) -> bytes:
    from repro.serve.protocol import encode_frame

    return encode_frame({"op": "batch", "stream": stream, "events": payloads})


HEALTH = b'{"op":"health"}\n'


@dataclass
class Part:
    """What one open-loop part (latency part or ladder step) observed."""

    rate: float
    streams: tuple
    #: Scale from the machine speed during the part to the nominal one.
    factor: float = 1.0
    frames: list = field(default_factory=list)
    backlog: list = field(default_factory=list)
    late_ms: list = field(default_factory=list)

    def batches(self) -> list:
        return [f for f in self.frames if f.kind == "batch"]

    def latencies_ms(self) -> list:
        return [(f.recv - f.due) * 1e3 * self.factor for f in self.batches()]

    def refused(self) -> int:
        return sum(f.n - int(f.response.get("accepted", 0)) for f in self.batches() if not f.response.get("ok"))

    def errors(self) -> int:
        return sum(1 for f in self.batches() if not f.response.get("ok") and not f.response.get("busy"))

    def busy(self) -> int:
        return sum(1 for f in self.batches() if f.response.get("busy"))


async def open_loop(conns, inputs: Inputs, cfg: Config, rate: float, seconds: float, streams: tuple) -> Part:
    """Send frames on a fixed schedule, pipelined, alternating streams."""
    part = Part(rate, streams)
    f = cfg.frame_events
    total = int(rate * seconds / f) // 2 * 2
    dt = f / rate
    data = [
        encode_batch(streams[k % 2], inputs.payloads[k % 2][(k // 2) * f:(k // 2 + 1) * f])
        for k in range(total)
    ]
    t0 = perf_counter() + 0.01
    next_sample = t0
    for k in range(total):
        due = t0 + k * dt
        now = perf_counter()
        if due > now:
            await asyncio.sleep(due - now)
            now = perf_counter()
        part.late_ms.append((now - due) * 1e3)
        frame = Frame("batch", k % 2, streams[k % 2], (k // 2) * f, f, due)
        conns[k % 2].send(frame, data[k])
        part.frames.append(frame)
        if now >= next_sample:
            probe = Frame("health", due=now)
            conns[0].send(probe, HEALTH)
            part.frames.append(probe)
            next_sample = now + cfg.sample_every
    for conn in conns:
        await conn.settle()
    part.backlog = [p.response.get("queued", 0) for p in part.frames if p.kind == "health"]
    return part


async def wait_idle(conn: Conn, timeout: float = 30.0) -> float:
    """Poll ``health`` until the daemon's backlog is empty; returns when."""
    deadline = perf_counter() + timeout
    while perf_counter() < deadline:
        probe = Frame("health")
        conn.send(probe, HEALTH)
        await conn.settle()
        if probe.response.get("queued", 1) == 0:
            return probe.recv
        await asyncio.sleep(0.002)
    raise RuntimeError("daemon backlog did not drain")


async def saturate(conns, inputs: Inputs, cfg: Config, per_stream: int, streams: tuple):
    """Send ``per_stream`` events per stream as fast as responses allow.

    Pipelined, with client-side flow control: a frame goes out only while
    the stream's last reported queue depth plus the events in flight stay
    a chunk below the daemon's queue bound, so no event is refused BUSY.
    Returns the frames and the seconds until the daemon's backlog is empty.
    """
    f = cfg.frame_events
    budget = cfg.queue_bound - cfg.chunk
    frames: list = []

    data = [
        [encode_batch(streams[slot], inputs.payloads[slot][lo:lo + f]) for lo in range(0, per_stream, f)]
        for slot in (0, 1)
    ]

    async def pump(slot: int) -> None:
        conn, stream = conns[slot], streams[slot]
        for k, frame_data in enumerate(data[slot]):
            while conn.depth + conn.in_flight + f > budget:
                if not conn.pending:
                    probe = Frame("stats", slot, stream)
                    conn.send(probe, json.dumps({"op": "stats", "stream": stream}).encode() + b"\n")
                await conn.next_response()
            frame = Frame("batch", slot, stream, k * f, f, perf_counter())
            conn.send(frame, frame_data)
            frames.append(frame)
            await asyncio.sleep(0)
        await conn.settle()

    t0 = perf_counter()
    await asyncio.gather(pump(0), pump(1))
    t_done = await wait_idle(conns[0])
    return frames, t_done - t0


def verdict(part: Part, cfg: Config) -> str:
    """``pass``, ``fail`` (the daemon did not keep up) or ``invalid``."""
    if common.percentile(part.late_ms, 99) > cfg.late_limit_ms:
        return "invalid"
    if part.busy() or part.errors():
        return "fail"
    backlog = part.backlog
    half = len(backlog) // 2
    if half and sum(backlog[half:]) / (len(backlog) - half) > sum(backlog[:half]) / half + cfg.chunk:
        return "fail"
    if common.tail(part.latencies_ms())[1] > cfg.latency_limit_ms:
        return "fail"
    return "pass"


async def drive(port: int, inputs: Inputs, cfg: Config, seconds: float, per_stream_sat: int):
    """Rounds of (latency part, saturation burst), then the ladder.

    Interleaving the rounds spreads each measurement over the whole run,
    so a short disturbance of the machine moves one round, not the median.
    Both connections are closed before returning.
    """
    conns = []
    for _ in range(2):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        conns.append(Conn(reader, writer))
    latency, bursts = [], []
    for r in range(cfg.rounds):
        # Calibrations while the daemon is idle scale each part to the
        # nominal machine speed (see common.calibrate).
        before = common.calibrate()
        part = await open_loop(
            conns, inputs, cfg, cfg.fixed_rate, cfg.latency_share * seconds / cfg.rounds,
            (f"fix{r}-a", f"fix{r}-b"),
        )
        await wait_idle(conns[0])
        middle = common.calibrate()
        part.factor = common.speed_factor(before, middle)
        latency.append(part)
        frames, seconds_taken = await saturate(
            conns, inputs, cfg, per_stream_sat, (f"sat{r}-a", f"sat{r}-b")
        )
        bursts.append((frames, seconds_taken * common.speed_factor(middle, common.calibrate())))
    steps = []
    retries = cfg.step_retries
    for i, rate in enumerate(cfg.ladder):
        while True:
            part = await open_loop(
                conns, inputs, cfg, rate, cfg.step_share * seconds,
                (f"step{i}.{retries}-a", f"step{i}.{retries}-b"),
            )
            await wait_idle(conns[0])
            steps.append((part, verdict(part, cfg)))
            if steps[-1][1] != "invalid" or not retries:
                break
            retries -= 1
        if steps[-1][1] != "pass":
            break
    for conn in conns:
        await conn.close()
    return latency, bursts, steps


# --------------------------------------------------------------------- #
# In-process reference (and the traced single-threaded baseline)
# --------------------------------------------------------------------- #


def accepted(frames) -> dict:
    """Per stream: (slot, accepted event indices) from the responses."""
    out: dict = {}
    for f in frames:
        if f.kind != "batch":
            continue
        slot, idx = out.setdefault(f.stream, (f.slot, []))
        n = f.n if f.response.get("ok") else int(f.response.get("accepted", 0))
        idx.extend(range(f.start, f.start + n))
    return out


def new_engine():
    from repro.actions import ActionEngine, CostModel, build_policy

    return ActionEngine(build_policy("cost-aware"), CostModel(**PRICES), seed=0)


def serve_in_process(meta, stream: str, payloads: list, cfg: Config, cuts=(), t=OFF) -> dict:
    """Decode, classify and serve one stream's frames as the daemon does.

    Frames are the ``batch`` frames of ``stream`` over ``payloads``; each
    frame is one serving chunk (the daemon's chunking below saturation).
    Returns ``{events served: (stats doc, ledger doc)}`` at every cut in
    ``cuts`` (taken on copies, so serving continues) and at the end.
    """
    from repro.ras.store import EventStore
    from repro.serve import DetectorPool
    from repro.serve.daemon import stats_to_dict
    from repro.serve.protocol import decode_request

    classify = meta.statistical.classifier.classify
    pool = DetectorPool(meta, shards=4, key="midplane")
    engine = new_engine()
    t.wrap(pool, "process_store", "serve.pool.process_store", len)
    t.wrap(engine, "observe_store", "actions.observe_store", lambda s, w: len(s))
    encode = t.fn("serve.protocol.encode_frame", encode_batch, lambda s, p: len(p))
    decode = t.fn("serve.protocol.decode_request", decode_request)
    build = t.fn("ras.store.from_events_in_memory", EventStore.from_events_in_memory, len)

    def label(events):
        return [ev if ev.subcategory is not None else ev.with_subcategory(classify(ev.entry_data))
                for ev in events]

    label = t.fn("taxonomy.classify", label, len)

    def settle(p, e) -> tuple:
        stats = t.fn("serve.pool.finish", p.finish)()
        ledger = t.fn("actions.finalize", e.finalize)()
        return stats_to_dict(stats), ledger.to_dict(include_entries=False)

    results: dict = {}
    frame_bytes = 0
    pending_max = 0
    f = cfg.frame_events
    with t.span("daemon-ingest.replay", len(payloads)):
        for lo in range(0, len(payloads), f):
            data = encode(stream, payloads[lo:lo + f])
            frame_bytes += len(data)
            events = label(list(decode(data).events))
            store = build(events)
            raised = pool.process_store(store)
            engine.observe_store(store, list(raised))
            if t.enabled:
                pending_max = max(pending_max, pool.pending_count)
            served = min(lo + f, len(payloads))
            if served in cuts and served < len(payloads):
                with t.span("bench.copy"):
                    p, e = copy.deepcopy((pool, engine), {id(meta): meta})
                results[served] = settle(p, e)
        results[len(payloads)] = settle(pool, engine)
    results["bytes"] = frame_bytes
    results["pending_max"] = pending_max
    return results


def doc_digest(doc: Any) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


# --------------------------------------------------------------------- #
# The run
# --------------------------------------------------------------------- #


def run(seed: int, seconds: float, trace: bool, corrupt: bool, cfg: Config = CONFIG, env=None) -> common.Outcome:
    from repro.core.serialize import load_model

    outcome = common.Outcome("daemon-ingest")
    workdir = common.make_workdir("daemon-ingest", seed)
    f = cfg.frame_events
    per_stream_sat = int(cfg.saturation_events_per_s * seconds) // (2 * f) * f
    longest = int(max(
        cfg.fixed_rate * cfg.latency_share * seconds / cfg.rounds / 2,
        cfg.ladder[-1] * cfg.step_share * seconds / 2,
        per_stream_sat,
    )) + f
    setups = []
    proc = None

    def set_up(tag: str):
        inputs = setup(seed, cfg, workdir, longest)
        return (inputs, *start_daemon(inputs, cfg, workdir, env, tag))

    try:
        for i in range(common.SETUP_REPEATS):
            if proc is not None:
                stop_daemon(proc)
            ((inputs, proc, port, state_path), seconds_taken), k = common.calibrated(
                lambda: common.timed(set_up, str(i))
            )
            setups.append(seconds_taken * k)
        # The generator's heap is built; keep the collector off it so its
        # pauses do not show up as daemon latency.
        gc.collect()
        gc.freeze()
        latency, bursts, steps = asyncio.run(drive(port, inputs, cfg, seconds, per_stream_sat))
    finally:
        if proc is not None:
            code, rss, _ = stop_daemon(proc)
    outcome.check("daemon drained and exited 0", code == 0, f"exit {code}")
    with open(state_path, encoding="utf-8") as fh:
        state = json.load(fh)

    # -- accounting ----------------------------------------------------- #
    parts = latency + [p for p, _ in steps]
    sat = Part(0.0, (), frames=[fr for frames, _ in bursts for fr in frames])
    offered = sum(fr.n for p in parts + [sat] for fr in p.batches())
    outcome.attempted = offered
    over_capacity = sum(p.refused() for p, v in steps if v != "pass")
    failed_events = sum(p.refused() for p in latency) + sat.refused() + sum(p.refused() for p, v in steps if v == "pass")
    outcome.failed += failed_events
    errors = sum(p.errors() for p in parts + [sat])
    outcome.check("no frame rejected", errors == 0, f"{errors} rejected frames")

    # -- correctness: every drained stream vs the in-process replay ------ #
    meta = load_model(inputs.model_path)
    meta = getattr(meta, "meta", meta)
    streams = accepted([fr for p in parts + [sat] for fr in p.frames])
    cuts: list = [set(), set()]
    longest_stream = ["", ""]
    irregular = {}
    for sid, (slot, idx) in streams.items():
        n = len(idx)
        if idx == list(range(n)):
            cuts[slot].add(n)
            if n >= max(cuts[slot]):
                longest_stream[slot] = sid
        else:
            irregular[sid] = (slot, idx)
    expected = {}
    reference_s = []
    for slot in (0, 1):
        n = max(cuts[slot])
        r0 = perf_counter()
        res = serve_in_process(meta, longest_stream[slot], inputs.payloads[slot][:n], cfg, cuts[slot])
        reference_s.append(perf_counter() - r0)
        for sid, (s, idx) in streams.items():
            if s == slot and sid not in irregular:
                expected[sid] = res[len(idx)]
    for sid, (slot, idx) in irregular.items():
        payloads = [inputs.payloads[slot][i] for i in idx]
        expected[sid] = serve_in_process(meta, sid, payloads, cfg)[len(payloads)]
    for sid, (slot, idx) in sorted(streams.items()):
        want_stats, want_ledger = expected[sid]
        if corrupt:
            want_stats = dict(want_stats, events=want_stats["events"] + 1)
        got = (state["streams"].get(sid), state.get("ledgers", {}).get(sid))
        outcome.check(
            "drained stream == in-process replay",
            got == (want_stats, want_ledger),
            f"{len(streams)} streams; ledger digest {doc_digest(want_ledger)[:12]}",
            weight=len(idx),
        )

    # -- metrics -------------------------------------------------------- #
    sustained = max((p.rate for p, v in steps if v == "pass"), default=0.0)
    lat = [part.latencies_ms() for part in latency]
    p = common.tail(lat[0])[0]
    late = [x for part in latency for x in part.late_ms]
    outcome.note(
        f"traffic: ANL scale {cfg.scale}, seed {seed}; {f}-event frames over 2 connections; "
        f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s; machine speed factor "
        f"{common.median([part.factor for part in latency]):.3f}"
    )
    outcome.note(
        f"latency: {cfg.fixed_rate:.0f} events/s offered in {len(lat)} rounds of "
        f"{len(lat[0])} frames; per round p50 / p{p:g}: "
        + ", ".join(f"{common.percentile(x, 50):.2f}/{common.tail(x)[1]:.2f}" for x in lat)
        + f" ms; generator late p99 {common.percentile(late, 99):.3f} ms"
    )
    for part, v in steps:
        lat_s = part.latencies_ms()
        pp, tv = common.tail(lat_s)
        outcome.note(
            f"ladder {part.rate:>7.0f}/s: {len(lat_s):>4} frames p50 {common.percentile(lat_s, 50):7.2f} ms "
            f"p{pp:g} {tv:7.2f} ms, busy {part.busy()}, backlog max {max(part.backlog, default=0)}, "
            f"late p99 {common.percentile(part.late_ms, 99):.2f} ms -> {v}"
        )
    outcome.note(
        f"sustained {sustained:.0f} events/s (limit {cfg.latency_limit_ms:g} ms); "
        f"over-capacity refusals above it: {over_capacity} events"
    )
    sat_seconds = [secs for _, secs in bursts]
    sat_wall = common.median(sat_seconds)
    outcome.note(
        f"saturation: {len(sat_seconds)} bursts of {2 * per_stream_sat} events in "
        f"{', '.join(f'{s:.3f}' for s in sat_seconds)} s; in-process replay "
        f"{sum(reference_s):.3f} s for {sum(max(c) for c in cuts)} events"
    )
    outcome.end_to_end.update(
        wall_s=sat_wall,
        throughput_eps=2 * per_stream_sat / sat_wall,
        latency_p50_ms=common.median([common.percentile(x, 50) for x in lat]),
        latency_tail_ms=common.median([common.tail(x)[1] for x in lat]),
        peak_rss_mib=rss,
        setup_s=common.median(setups),
    )
    if trace:
        tracer = Tracer(f"daemon-ingest-seed{seed}")
        traced = []
        for slot in (0, 1):
            n = max(cuts[slot])
            res = serve_in_process(
                meta, longest_stream[slot], inputs.payloads[slot][:n], cfg, cuts[slot], tracer
            )
            traced.append(res)
        valid = latency + [p for p, v in steps if v != "invalid"]
        samples = [b for part in parts for b in part.backlog]
        layers(outcome, tracer, traced, reference_s, expected)
        outcome.layers.update({
            "serve.daemon.queue_depth_max": float(max(samples, default=0)),
            "serve.daemon.busy_ratio": (failed_events + over_capacity) / offered,
            "serve.daemon.sustained_eps": sustained,
            "gen.late_ms_max": max(max(part.late_ms) for part in valid),
        })
        tracer.write(os.path.join(common.OUT_ROOT, f"trace-daemon-ingest-seed{seed}.json"))
    shutil.rmtree(workdir, ignore_errors=True)
    return outcome


def layers(outcome, tracer, traced, reference_s, expected) -> None:
    """Per-layer metrics of the traced in-process replay."""
    table = tracer.layer_table()
    wall = tracer.roots_wall()
    per = lambda name: common.per_unit_us(table, name)  # noqa: E731
    row = lambda name: table.get(name, {"calls": 0, "units": 0, "self_s": 0.0})  # noqa: E731
    enc = row("serve.protocol.encode_frame")
    fin = row("actions.finalize")
    events = row("serve.protocol.encode_frame")["units"]
    ledger = max((v[1] for v in expected.values()), key=lambda d: d.get("settled", 0))
    settled = ledger.get("settled", 0)
    outcome.layers.update({
        "serve.protocol.decode_us_per_event": row("serve.protocol.decode_request")["self_s"] / events * 1e6,
        "serve.protocol.encode_us_per_frame": enc["self_s"] / enc["calls"] * 1e6,
        "serve.protocol.bytes_per_event": sum(r["bytes"] for r in traced) / events,
        "taxonomy.classify_us_per_event": per("taxonomy.classify"),
        "ras.store.build_us_per_event": per("ras.store.from_events_in_memory"),
        "serve.pool.process_us_per_event": per("serve.pool.process_store"),
        "online.pending_max": float(max(r["pending_max"] for r in traced)),
        "actions.observe_us_per_event": per("actions.observe_store"),
        "actions.finalize_ms": fin["self_s"] / fin["calls"] * 1e3 if fin["calls"] else 0.0,
        "actions.hit_ratio": ledger.get("outcomes", {}).get("hit", 0) / settled if settled else 0.0,
        "trace.unattributed_ratio": row("daemon-ingest.replay")["self_s"] / wall,
        "trace.overhead_ratio": wall / sum(reference_s) - 1.0,
    })
    outcome.layer_table = table
    outcome.traced_wall_s = wall
