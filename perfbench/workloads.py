"""The benchmark's three workloads and the closed loop that drives them.

Every workload runs the shipped defaults through the public ``PTLDB`` and
``Router`` APIs. Only the city, the device and the pool size are fixed
per workload; the seed sets the calls and the target set. Each answer is
checked after the measured phase, against :mod:`oracles`.

* ``v2v_warm`` — Denver/paper on the default pool (the whole database
  fits), warmed; one client sends EA, LD and SD in equal shares. Every
  request is a handful of pool hits, so this isolates the fixed cost per
  statement.
* ``mixed_cold`` — Denver/paper on ``hdd`` with a pool of about a quarter
  of the database, restarted before timing; one client sends v2v, kNN and
  one-to-many in equal shares plus one of the five analytics scans per 36
  point queries. Buffer, disk and executor all work, and the scans evict
  the label pages the point lookups need.
* ``serve`` — Austin/paper through the sharded router from scratch
  (``build_labels`` without a cache, ``build_shards`` into two WAL-backed
  shard files, ``Router.start``, all on one core); one client sends v2v,
  kNN and one-to-many in equal shares, with parameters no earlier call
  used, so the result cache is never hit.

The client replays a fixed round of calls for the measured phase; replay
*r* shifts every time parameter by *r* seconds, which keeps the work of a
call while making its parameters new. A call's latency is the fastest of
its replays, which filters out the moments the host ran the benchmark
slowly; the percentiles and means are taken over the round's calls.
"""

from __future__ import annotations

import itertools
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy
from repro.errors import BackpressureError
from repro.labeling import io as label_io
from repro.labeling import ttl
from repro.minidb.metrics import REGISTRY
from repro.minidb.page import PAGE_SIZE
from repro.minidb.wal import WriteAheadLog
from repro.ptldb import framework
from repro.serving import router as router_mod
from repro.serving import shards
from repro.timetable import datasets

import layers
from oracles import SCAN_ARGS, SCAN_NAMES, Oracle
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))

#: End-to-end metric -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "ok_ratio": "ratio",
    "mix_mean_ms": "ms",
    "v2v_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

TAG = "bench"  # the target set's tag
K = 4  # kNN k, and the target set's kmax
DENSITY = 0.1  # targets per stop
#: Timed set-ups per untraced run; setup_s is their median.
SETUPS = 2
#: Most replays of a round; time parameters are drawn this many seconds
#: inside their windows, so every shifted call stays in the window.
MAX_REPLAYS = 3600
#: Fewest replays of a round on one deployment, however short --seconds.
MIN_REPLAYS = 4


class BenchError(Exception):
    """The benchmark could not run as specified (not a wrong answer)."""


@dataclass(frozen=True)
class City:
    name: str
    scale: str


@dataclass(frozen=True)
class Call:
    kind: str  # "v2v", "knn", "otm" or "scan"
    op: str  # "ea"/"ld"/"sd", or the analytics method name
    args: tuple

    def shifted(self, seconds: int) -> "Call":
        """This call with every time parameter *seconds* later."""
        args = self.args
        if self.kind == "v2v":
            args = args[:2] + tuple(t + seconds for t in args[2:])
        elif self.kind == "knn":
            args = (args[0], args[1] + seconds, args[2])
        elif self.kind == "otm":
            args = (args[0], args[1] + seconds)
        return Call(self.kind, self.op, args)


@dataclass(slots=True)
class Outcome:
    call: Call
    position: int  # of the call in the round
    ms: float
    traced: bool
    value: object = None
    error: str | None = None
    io_ms: float = 0.0
    stages: dict | None = None  # QueryTrace.stage_totals() of the call
    floor_ms: float | None = None  # the label engine's time on a v2v call


@dataclass
class Deployment:
    """What one set-up produced: the API to query and what checks it."""

    api: object
    timetable: object
    labels: object
    targets: tuple = ()
    db: object = None  # the in-process minidb Database, if any
    router: object = None
    directory: str | None = None
    affinity: set | None = None  # the CPUs to give back to this process

    def close(self) -> None:
        if self.router is not None:
            self.router.close()
        if self.affinity is not None:
            os.sched_setaffinity(0, self.affinity)
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
def quartiles(timetable) -> tuple[tuple[int, int], tuple[int, int]]:
    """The paper's §4 windows: departures from the first quarter of the
    timestamp range, arrivals from the fourth."""
    low, high = timetable.time_range()
    span = high - low
    return (low, low + span // 4), (low + 3 * span // 4, high)


def draw_targets(num_stops: int, seed: int) -> tuple[int, ...]:
    rng = random.Random(f"targets-{seed}")
    count = max(2, round(DENSITY * num_stops))
    return tuple(sorted(rng.sample(range(num_stops), count)))


class Stream:
    """An endless, seeded sequence of calls, dealt in shuffled cycles.

    *cycle* lists the (kind, op) slots of one cycle, so every family's
    share is exact; the order inside a cycle and every parameter come from
    the seed (uniform stops with source != goal, quartile timestamps drawn
    at least ``MAX_REPLAYS`` seconds before the window ends).
    """

    def __init__(self, timetable, cycle: list[tuple[str, str]], seed: str):
        self.rng = random.Random(seed)
        self.n = timetable.num_stops
        self.first, self.fourth = (
            (low, high - MAX_REPLAYS) for low, high in quartiles(timetable))
        if self.first[1] < self.first[0] or self.fourth[1] < self.fourth[0]:
            raise BenchError("the quartile windows are shorter than MAX_REPLAYS")
        self.cycle = list(cycle)
        self.scans = itertools.cycle(SCAN_NAMES)
        self._pending: list[Call] = []

    def _pair(self) -> tuple[int, int]:
        source = self.rng.randrange(self.n)
        goal = self.rng.randrange(self.n - 1)
        return source, goal + (goal >= source)

    def _make(self, kind: str, op: str) -> Call:
        rng = self.rng
        depart = rng.randint(*self.first)
        arrive = rng.randint(*self.fourth)
        if kind == "v2v":
            s, g = self._pair()
            args = {"ea": (s, g, depart), "ld": (s, g, arrive),
                    "sd": (s, g, depart, arrive)}[op]
        elif kind == "knn":
            args = (rng.randrange(self.n), depart if op == "ea" else arrive, K)
        elif kind == "otm":
            args = (rng.randrange(self.n), depart if op == "ea" else arrive)
        else:
            op = next(self.scans)
            args = SCAN_ARGS.get(op, ())
        return Call(kind, op, args)

    def __iter__(self):
        return self

    def __next__(self) -> Call:
        if not self._pending:
            slots = self.cycle[:]
            self.rng.shuffle(slots)
            self._pending = [self._make(kind, op) for kind, op in slots]
            self._pending.reverse()
        return self._pending.pop()


def invoke(api, call: Call):
    """Issue *call* on a ``PTLDB`` or ``Router``."""
    if call.kind == "v2v":
        method = {"ea": "earliest_arrival", "ld": "latest_departure",
                  "sd": "shortest_duration"}[call.op]
        return getattr(api, method)(*call.args)
    if call.kind == "knn":
        method = "ea_knn" if call.op == "ea" else "ld_knn"
        return getattr(api, method)(TAG, *call.args)
    if call.kind == "otm":
        method = "ea_one_to_many" if call.op == "ea" else "ld_one_to_many"
        return getattr(api, method)(TAG, *call.args)
    return getattr(api, call.op)(*call.args)


# ---------------------------------------------------------------------------
# The label cache the Denver workloads own
# ---------------------------------------------------------------------------
def cached_labels_path(cache_dir: str, timetable) -> str:
    return label_io.cached_label_path(
        cache_dir, label_io.timetable_digest(timetable)
    )


def prime_label_cache(city: City, cache_dir: str) -> None:
    """Write *city*'s labels into *cache_dir* (the untimed priming step).

    Runs in a child process so the build's memory and worker processes
    never touch the measuring process; ``workers=2`` is bit-identical to
    the sequential build and keyed by the same digest."""
    tt = datasets.load_dataset(city.name, city.scale)
    if os.path.exists(cached_labels_path(cache_dir, tt)):
        return
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--prime",
         city.name, city.scale, cache_dir],
        check=True,
        timeout=800,
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
V2V = [("v2v", "ea"), ("v2v", "ld"), ("v2v", "sd")]
#: v2v, kNN and one-to-many in equal shares, their EA/LD(/SD) kinds alike.
POINT_MIX = (V2V * 2 + [("knn", "ea"), ("knn", "ld")] * 3
             + [("otm", "ea"), ("otm", "ld")] * 3)


class Workload:
    name = ""
    city = City("Denver", "paper")
    label_cache = False
    cycle: list[tuple[str, str]] = V2V
    #: Cycles in the client's round.
    round_cycles = 1

    def __init__(self, work_dir: str, city: City | None = None):
        self.work_dir = work_dir
        if city is not None:
            self.city = city
        self.cache_dir = os.path.join(work_dir, "labels")

    def setup(self, seed: int) -> Deployment:
        raise NotImplementedError

    def prepare(self, dep: Deployment) -> None:
        """Untimed work between set-up and the measured phase."""

    def oracle(self, dep: Deployment) -> Oracle:
        return Oracle(dep.labels, dep.targets)

    def round(self, dep: Deployment, key: str) -> list[Call]:
        """The client's round; *key* derives from the run's seed."""
        return list(itertools.islice(
            Stream(dep.timetable, self.cycle, f"{self.name}-{key}"),
            len(self.cycle) * self.round_cycles))

    def _check_cache_hit(self, tt) -> None:
        if not os.path.exists(cached_labels_path(self.cache_dir, tt)):
            raise BenchError(
                f"{self.name}: label cache miss in {self.cache_dir}; "
                "set-up would silently include the TTL build"
            )


class V2VWarm(Workload):
    name = "v2v_warm"
    label_cache = True
    cycle = V2V
    round_cycles = 100

    def setup(self, seed):
        tt = datasets.load_dataset(self.city.name, self.city.scale)
        self._check_cache_hit(tt)
        api = framework.PTLDB.from_timetable(tt, cache_dir=self.cache_dir)
        return Deployment(api=api, timetable=tt, labels=api.labels, db=api.db)

    def prepare(self, dep):
        # Touch every stop's Lout/Lin pages and B+Tree paths, and run each
        # statement once so its plan is cached.
        n = dep.timetable.num_stops
        first, fourth = quartiles(dep.timetable)
        for s in range(n):
            dep.api.earliest_arrival(s, (s + 1) % n, first[0])
        dep.api.latest_departure(0, n - 1, fourth[1])
        dep.api.shortest_duration(0, n - 1, first[0], fourth[1])


class MixedCold(Workload):
    name = "mixed_cold"
    label_cache = True
    device = "hdd"
    pool_pages = 200  # about a quarter of the Denver/paper database
    # Equal family shares, plus one scan per 36 point queries: about 3% of
    # the calls but, at ~100 ms a scan, about half of the time, so their
    # evictions show. A chosen mix, not measured traffic. Five cycles make
    # a round, so each of the five scans runs once a round.
    cycle = POINT_MIX * 2 + [("scan", "")]
    round_cycles = 5

    def setup(self, seed):
        tt = datasets.load_dataset(self.city.name, self.city.scale)
        self._check_cache_hit(tt)
        api = framework.PTLDB.from_timetable(
            tt, device=self.device, pool_pages=self.pool_pages,
            cache_dir=self.cache_dir,
        )
        targets = draw_targets(tt.num_stops, seed)
        api.build_target_set(TAG, targets, kmax=K)
        return Deployment(api=api, timetable=tt, labels=api.labels,
                          targets=targets, db=api.db)

    def prepare(self, dep):
        dep.api.restart()  # the paper's cold protocol

    def oracle(self, dep):
        return Oracle(dep.labels, dep.targets, timetable=dep.timetable)


class Serve(Workload):
    name = "serve"
    city = City("Austin", "paper")
    shards = 2
    cycle = POINT_MIX
    round_cycles = 10

    def setup(self, seed):
        tt = datasets.load_dataset(self.city.name, self.city.scale)
        labels, _ = ttl.build_labels(tt, add_dummies=True)
        targets = draw_targets(tt.num_stops, seed)
        directory = os.path.join(
            self.work_dir, "serve", f"{os.getpid()}-{time.monotonic_ns()}"
        )
        dep = Deployment(api=None, timetable=tt, labels=labels,
                         targets=targets, directory=directory,
                         affinity=os.sched_getaffinity(0))
        try:
            manifest = shards.build_shards(
                directory, labels, self.shards,
                target_sets=[{"tag": TAG, "targets": list(targets), "kmax": K}],
            )
            # The client, the router and the shard workers (which inherit
            # this) share one core. Across the cores of a small shared
            # host, every hop of a call pays a wake-up whose latency follows
            # the neighbours' load from minute to minute; on one core a hop
            # is a context switch. The shards' halves of a scatter then run
            # one after the other.
            os.sched_setaffinity(0, {min(dep.affinity)})
            dep.api = dep.router = router_mod.Router(manifest)
            dep.router.start()
        except BaseException:
            dep.close()  # stops any worker already started
            raise
        return dep

    def prepare(self, dep):
        # Each worker prepares a family's statement on first use.
        n = dep.timetable.num_stops
        first, _ = quartiles(dep.timetable)
        for s in (0, n - 1):
            dep.api.earliest_arrival(s, (s + 1) % n, first[0])
            dep.api.latest_departure(s, (s + 1) % n, first[1])
            dep.api.shortest_duration(s, (s + 1) % n, first[0], first[1])
            for op in ("ea", "ld"):
                invoke(dep.api, Call("knn", op, (s, first[0], K)))
                invoke(dep.api, Call("otm", op, (s, first[0])))


WORKLOADS = {w.name: w for w in (V2VWarm, MixedCold, Serve)}


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------
class Loop:
    """One closed-loop client replaying its round.

    The client sends its next call when the last returns; a tracer is
    switched on or off only between replays. One client keeps the load
    within what the host runs at once; on ``serve`` a call already passes
    through the router and both shard workers.
    """

    def __init__(self, dep: Deployment, round_: list[Call],
                 keep_stages: bool):
        self.dep = dep
        self.round = round_
        self.keep_stages = keep_stages
        self.outcomes: list[Outcome] = []
        self.replays = 0
        #: Wall seconds spent in untraced (False) and traced (True) replays.
        self.elapsed = {False: 0.0, True: 0.0}
        #: ``(start_ns, end_ns)`` of every traced replay.
        self.traced_windows: list[tuple[int, int]] = []
        self._request_ids = itertools.count()

    def _client(self, replay: int, tracer: Tracer | None) -> None:
        api = self.dep.api
        db = self.dep.db
        out = self.outcomes.append
        traced = tracer is not None
        clock = time.perf_counter
        for position, call in enumerate(self.round):
            call = call.shifted(replay)
            if traced:
                tracer.set_request(next(self._request_ids))
            error = None
            value = None
            started = clock()
            try:
                value = invoke(api, call)
            except BackpressureError:
                error = "BackpressureError"
            except Exception as exc:  # counted in failed; the loop goes on
                error = f"{type(exc).__name__}: {exc}"
            ms = (clock() - started) * 1000.0
            if traced:
                tracer.set_request(-1)
            outcome = Outcome(call, position, ms, traced, value, error)
            if db is not None and error is None:
                cost = db.last_cost
                outcome.io_ms = cost.simulated_io_ms if cost else 0.0
                if (self.keep_stages and not traced
                        and db.last_trace is not None):
                    outcome.stages = db.last_trace.stage_totals()
            out(outcome)

    def replay(self, tracer: Tracer | None = None) -> None:
        """The client sends its round once, spans on when *tracer*."""
        replay = self.replays
        self.replays += 1
        if tracer is not None:
            tracer.install()
        started_ns = time.perf_counter_ns()
        try:
            self._client(replay, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        ended_ns = time.perf_counter_ns()
        self.elapsed[tracer is not None] += (ended_ns - started_ns) / 1e9
        if tracer is not None:
            self.traced_windows.append((started_ns, ended_ns))

    def run(self, seconds: float, tracer: Tracer | None = None) -> None:
        """Replay until *seconds* have passed; with a tracer, every second
        replay is traced, so both kinds see the same pool and host state."""
        deadline = time.perf_counter() + seconds
        first = self.replays
        while self.replays < MAX_REPLAYS and (
                self.replays - first < MIN_REPLAYS
                or time.perf_counter() < deadline):
            self.replay(tracer if self.replays % 2 == 1 else None)


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------
def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(min(rank, len(ordered))) - 1]


def fastest(outcomes: list[Outcome], traced: bool = False,
            field: str = "ms") -> dict[int, tuple[str, float]]:
    """``position -> (kind, fastest replay)`` over the answered replays of
    each call of the round; *field* picks the time to take."""
    best: dict[int, tuple[str, float]] = {}
    for o in outcomes:
        value = getattr(o, field)
        if o.error is None and o.traced == traced and value is not None:
            if o.position not in best or value < best[o.position][1]:
                best[o.position] = (o.call.kind, value)
    return best


def of_kind(best: dict, kind: str) -> list[float]:
    return [ms for k, ms in best.values() if k == kind]


def max_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class WalBytes:
    """Counts the bytes ``WriteAheadLog.commit`` appends to its log, by
    wrapping the method while installed."""

    def __init__(self):
        self.total = 0
        self._raw = None

    def install(self) -> None:
        raw = self._raw = WriteAheadLog.commit

        def commit(wal, *args, **kwargs):
            before = wal.size_bytes()
            try:
                return raw(wal, *args, **kwargs)
            finally:
                self.total += max(0, wal.size_bytes() - before)

        WriteAheadLog.commit = commit

    def uninstall(self) -> None:
        WriteAheadLog.commit = self._raw


def label_tuples(labels) -> int:
    return sum(len(t) for t in labels.lout) + sum(len(t) for t in labels.lin)


def host_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def dataset_info(workload: Workload, dep: Deployment) -> dict:
    tt = dep.timetable
    if dep.db is not None:
        pages = dep.db.total_pages()
        pool = dep.db.pool.capacity
    else:
        files = [dep.router.manifest.shard_db_path(i)
                 for i in range(dep.router.num_shards)]
        pages = sum(os.path.getsize(f) for f in files) // PAGE_SIZE
        pool = dep.router.manifest.pool_pages * dep.router.num_shards
    return {
        "city": f"{workload.city.name}/{workload.city.scale}",
        "stops": tt.num_stops,
        "connections": tt.num_connections,
        "label_tuples": label_tuples(dep.labels),
        "targets": len(dep.targets),
        "db_pages": pages,
        "pool_pages": pool,
        "pages_to_pool": pages / pool,
    }


def bytes_per_label(dep: Deployment) -> float:
    if dep.db is not None:
        total = dep.api.storage_report()["total_bytes"]
    else:
        total = sum(
            os.path.getsize(dep.router.manifest.shard_db_path(i))
            for i in range(dep.router.num_shards)
        )
    return total / label_tuples(dep.labels)


@dataclass
class PhaseStats:
    """Program counters read at the start and end of a traced run's
    measured phase: plan caches, buffer pool, disk, result cache and the
    workers' own service-time samples."""

    plan_cache: tuple = (0, 0)  # (hits, misses)
    pool: object = None
    disk: object = None
    result_cache: dict | None = None
    worker_ms: list = field(default_factory=list)

    @classmethod
    def read(cls, dep: Deployment) -> "PhaseStats":
        if dep.router is None:
            return cls(
                plan_cache=(REGISTRY.counter("plan_cache.hits").value,
                            REGISTRY.counter("plan_cache.misses").value),
                pool=dep.db.pool.stats.snapshot(),
                disk=dep.db.disk.stats.snapshot(),
            )
        # Worker registries arrive prefixed by worker name; the router's
        # own is prefixed "router." and holds neither figure.
        merged = dep.router.gather_metrics().to_dict()
        hits = misses = 0
        for name, value in merged["counters"].items():
            if name.startswith("router."):
                continue
            if name.endswith("plan_cache.hits"):
                hits += value
            elif name.endswith("plan_cache.misses"):
                misses += value
        return cls(
            plan_cache=(hits, misses),
            result_cache=dep.router.cache_stats(),
            worker_ms=[
                values for name, values in sorted(merged["histograms"].items())
                if not name.startswith("router.")
                and name.endswith("serving.worker.request_ms")
            ],
        )


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------
@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    context: dict
    mismatches: list = field(default_factory=list)


def _setup(workload: Workload, seed: int, tracer: Tracer | None,
           wal: WalBytes | None):
    """One timed set-up; with a tracer its spans and WAL bytes are recorded."""
    if tracer is not None:
        tracer.install()
        wal.install()  # outside the tracer's wal.commit span
    started = time.perf_counter()
    try:
        dep = workload.setup(seed)
    finally:
        if tracer is not None:
            wal.uninstall()
            tracer.uninstall()
    return dep, time.perf_counter() - started


def _check(outcomes: list[Outcome], oracle: Oracle) -> list[str]:
    """Mark every answer the oracle disagrees with; describe each."""
    mismatches = []
    for outcome in outcomes:
        if outcome.error is None:
            call = outcome.call
            matched = oracle.matches(call.kind, call.op, call.args,
                                     outcome.value)
            if call.kind == "v2v":
                outcome.floor_ms = oracle.last_floor_ms
            if not matched:
                outcome.error = "mismatch"
                mismatches.append(
                    f"{call.kind}/{call.op}{call.args}: got {outcome.value!r}, "
                    f"want {oracle.expected(call.kind, call.op, call.args)!r}"
                )
    return mismatches


def latency_context(outcomes: list[Outcome], replays: int) -> dict:
    """Per family: the calls behind each percentile of their fastest
    replays, and every untraced replay's latency."""
    best = fastest(outcomes)
    out = {}
    for kind in ("v2v", "knn", "otm", "scan"):
        calls = of_kind(best, kind)
        every = [o.ms for o in outcomes
                 if o.call.kind == kind and o.error is None and not o.traced]
        if calls:
            out[kind] = {
                "calls": len(calls),
                "replays": replays,
                **{f"p{p}": percentile(calls, p) for p in (50, 90, 95)},
                "all_n": len(every),
                **{f"all_p{p}": percentile(every, p) for p in (50, 95, 99)},
            }
    return out


def run(name: str, seed: int, seconds: float, trace: bool, work_dir: str,
        city: City | None = None, span_file: str | None = None) -> RunResult:
    workload = WORKLOADS[name](work_dir, city)
    if workload.label_cache:
        prime_label_cache(workload.city, workload.cache_dir)
    tracer = Tracer(layers.TARGETS) if trace else None
    wal = WalBytes() if trace else None
    cache_before = (sorted(os.listdir(workload.cache_dir))
                    if workload.label_cache else None)

    # Set up SETUPS times (once, with spans on, in the traced run) and
    # measure each deployment for an equal share of the seconds, so a
    # call's fastest replay is taken over host states further apart.
    repeats = 1 if trace else SETUPS
    setup_times = []
    loop = None
    for attempt in range(repeats):
        if attempt:  # freed before the next set-up, for peak_rss_mb
            loop.dep = dep = None
        dep, took = _setup(workload, seed, tracer, wal)
        setup_times.append(took)
        try:
            if workload.label_cache and sorted(
                    os.listdir(workload.cache_dir)) != cache_before:
                raise BenchError(f"{name}: set-up wrote to the label cache")
            workload.prepare(dep)
            if loop is None:
                loop = Loop(dep, workload.round(dep, str(seed)),
                            keep_stages=trace)
            loop.dep = dep
            if trace:
                before = PhaseStats.read(dep)
                loop.run(seconds, tracer)
                after = PhaseStats.read(dep)
                per_label = bytes_per_label(dep)
            else:
                loop.run(seconds / repeats)
            # Read before the oracle exists, so only the program's memory
            # (and the benchmark's outcome list) is in it.
            rss_mb = max_rss_mb(resource.RUSAGE_SELF)
            dataset = dataset_info(workload, dep)
        finally:
            dep.close()
    if dep.router is not None:  # the shard workers, reaped by close()
        rss_mb += max_rss_mb(resource.RUSAGE_CHILDREN)
    # Built only now, so its indexes add nothing to the measured process's
    # heap while the clock runs.
    oracle = workload.oracle(dep)
    outcomes = loop.outcomes
    mismatches = _check(outcomes, oracle)

    ok = [o for o in outcomes if o.error is None]
    context = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "host": host_info(),
        "dataset": dataset,
        "clients": 1,
        "round_calls": len(loop.round),
        "setup_samples_s": setup_times,
        "errors": sorted({o.error for o in outcomes
                          if o.error and o.error != "mismatch"})[:5],
        "mismatches": mismatches[:5],
        "ld_knn_tie_substitutions": oracle.ld_tie_substitutions,
        "latency_ms": latency_context(
            outcomes, loop.replays - len(loop.traced_windows)),
    }
    if not trace:
        best = fastest(ok)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ok_ratio": len(ok) / len(outcomes) if outcomes else 0.0,
            "mix_mean_ms": statistics.fmean(
                ms for _, ms in best.values()) if best else 0.0,
            "v2v_p50_ms": percentile(of_kind(best, "v2v"), 50),
            "peak_rss_mb": rss_mb,
        }
    else:
        metrics = layer_metrics(tracer, loop, ok, before, after,
                                wal.total, per_label)
        if span_file is not None:
            context["spans_written"] = tracer.dump(span_file)
        context["traced_requests"] = sum(1 for o in ok if o.traced)
    return RunResult(
        correct=not mismatches and bool(outcomes),
        attempted=len(outcomes),
        failed=len(outcomes) - len(ok),
        metrics=metrics,
        context=context,
        mismatches=mismatches,
    )


def layer_metrics(tracer, loop, ok, before, after, wal_bytes,
                  per_label) -> dict:
    spans = tracer.spans()
    report = layers.SpanReport(spans)
    plain = [o for o in ok if not o.traced]
    best = fastest(ok)
    attempted = loop.outcomes
    requests = len(attempted) or 1

    def p50(kind, calls=best):
        return percentile(of_kind(calls, kind), 50)

    v2v_plain = p50("v2v")
    floor = p50("v2v", fastest(ok, field="floor_ms"))
    m = {
        "timetable.generate_s": report.total_s("timetable.generate"),
        "labeling.build_s": report.total_s("labeling.build"),
        "labeling.cache_load_s": report.total_s("labeling.cache_load"),
        "labeling.floor_p50_ms": floor,
        "labeling.floor_ratio": v2v_plain / floor if floor else 0.0,
        "ptldb.load_s": report.outside_s("ptldb.load", "labeling"),
        "ptldb.aux_build_s": report.total_s("ptldb.aux_build"),
        "ptldb.self_ms": report.per_request_ms("ptldb"),
        "ptldb.bytes_per_label": per_label,
        "session.self_ms": report.per_request_ms("session"),
    }
    hits = after.plan_cache[0] - before.plan_cache[0]
    misses = after.plan_cache[1] - before.plan_cache[1]
    m["session.plan_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["session.statements_per_query"] = (hits + misses) / requests
    m["executor.self_ms"] = report.per_request_ms("executor")
    with_stages = [o for o in plain if o.stages is not None]
    ratios = []
    for o in with_stages:
        examined = sum(stage["rows"] for stage in o.stages.values())
        value = o.value
        returned = len(value) if isinstance(value, (list, dict)) else 1
        ratios.append(examined / max(1, returned))
    m["executor.rows_per_result"] = statistics.fmean(ratios) if ratios else 0.0
    m["executor.row_engine_share"] = report.row_engine_share()
    for metric, stage_names in layers.OP_STAGES.items():
        total = sum(
            o.stages[s]["time_ms"] for o in with_stages for s in stage_names
            if s in o.stages
        )
        m[metric] = total / len(with_stages) if with_stages else 0.0
    m["decode.self_ms"] = report.per_request_ms("decode")
    m["decode.calls_per_query"] = (
        report.per_request("decode.record") + report.per_request("decode.columnar"))
    m["btree.self_ms"] = report.per_request_ms("btree")
    m["btree.searches_per_query"] = report.per_request("btree.search")
    m["buffer.self_ms"] = report.per_request_ms("buffer")
    m["disk.self_ms"] = report.per_request_ms("disk")
    if before.pool is not None:
        pool = after.pool.delta(before.pool)
        disk = after.disk.delta(before.disk)
        accesses = pool.hits + pool.misses
        m["buffer.hit_ratio"] = pool.hits / accesses if accesses else 0.0
        m["buffer.evictions_per_query"] = pool.evictions / requests
        m["disk.page_reads_per_query"] = disk.reads / requests
        m["disk.sequential_share"] = (
            disk.sequential_reads / disk.reads if disk.reads else 0.0)
    else:
        m["buffer.hit_ratio"] = 0.0
        m["buffer.evictions_per_query"] = 0.0
        m["disk.page_reads_per_query"] = 0.0
        m["disk.sequential_share"] = 0.0
    m["wal.self_s"] = report.layer_self_ns("wal", in_request=False) / 1e9
    m["wal.bytes_written"] = wal_bytes
    m["serving.shard_build_s"] = report.total_s("serving.shard_build")
    m["serving.spawn_s"] = report.total_s("serving.spawn")
    traced_windows = loop.traced_windows
    service = [
        ms for old, new in zip(before.worker_ms, after.worker_ms)
        for ms in new[len(old):]
    ]
    m["serving.worker_service_ms"] = percentile(service, 50)
    n = report.requests
    router_ns = sum(
        report.self_ns[s.span_id] for s in report.in_request
        if s.name in ("serving.router", "serving.enqueue")
    )
    send_ns = sum(s.duration_ns for s in report.in_request
                  if s.name == "serving.send")
    # Reader threads block in recv_message between responses; count only
    # the frames read wholly inside a traced replay, so that the blocking
    # header read is always a child span and drops out of the self time.
    recv_ns = sum(
        report.self_ns[s.span_id] for s in spans
        if s.name == "serving.recv" and any(
            lo <= s.start_ns and s.end_ns <= hi for lo, hi in traced_windows)
    )
    wait_ns = sum(s.duration_ns for s in report.in_request
                  if s.name == "serving.wait")
    m["serving.router_self_ms"] = router_ns / 1e6 / n if n else 0.0
    m["serving.protocol_ms"] = (send_ns + recv_ns) / 1e6 / n if n else 0.0
    m["serving.wait_ms"] = wait_ns / 1e6 / n if n else 0.0
    m["serving.fanout"] = report.per_request("serving.enqueue")
    if before.result_cache is not None:
        c_hits = after.result_cache["hits"] - before.result_cache["hits"]
        c_miss = after.result_cache["misses"] - before.result_cache["misses"]
        m["serving.cache_hit_ratio"] = (
            c_hits / (c_hits + c_miss) if c_hits + c_miss else 0.0)
    else:
        m["serving.cache_hit_ratio"] = 0.0
    m["serving.admission_rejects"] = sum(
        1 for o in loop.outcomes if o.error == "BackpressureError")
    m["qps"] = len(plain) / loop.elapsed[False] if loop.elapsed[False] else 0.0
    m["v2v_p95_ms"] = percentile(of_kind(best, "v2v"), 95)
    m["knn_p50_ms"] = p50("knn")
    m["otm_p50_ms"] = p50("otm")
    m["scan_p50_ms"] = p50("scan")
    m["sim_io_ms"] = statistics.fmean(o.io_ms for o in plain) if plain else 0.0
    v2v_traced = p50("v2v", fastest(ok, traced=True))
    m["trace.overhead_ratio"] = v2v_traced / v2v_plain if v2v_plain else 0.0
    wall_ns = sum(o.ms for o in attempted if o.traced) * 1e6
    m["trace.unattributed_share"] = (
        (wall_ns - sum(report.request_self_by_layer_ns().values()))
        / wall_ns if wall_ns else 0.0)
    return {name: m[name] for name in layers.PER_LAYER}
