"""The layers the benchmark traces, and the metrics it derives from spans.

Each :class:`~spans.Target` names the attribute a caller resolves when it
enters a layer. Span names start with the layer they belong to; the layer
of a span is everything before its first dot.
"""

from __future__ import annotations

from spans import Span, Target, self_times

_QUERY_METHODS = (
    "earliest_arrival", "latest_departure", "shortest_duration",
    "ea_knn", "ld_knn", "ea_one_to_many", "ld_one_to_many",
)
_SCAN_METHODS = (
    "busiest_hubs", "route_trip_stats", "hourly_departures",
    "route_leg_volume", "network_span",
)

TARGETS: list[Target] = [
    Target("repro.timetable.datasets:load_dataset", "timetable.generate"),
    Target("repro.labeling.ttl:build_labels", "labeling.build"),
    # PTLDB.from_timetable imports load_or_build at call time, so the
    # module attribute is what it resolves.
    Target("repro.labeling.io:load_or_build", "labeling.cache_load"),
    Target("repro.ptldb.framework:PTLDB.from_timetable", "ptldb.load"),
    Target("repro.ptldb.framework:PTLDB.build_target_set", "ptldb.aux_build"),
    *(
        Target(f"repro.ptldb.framework:PTLDB.{name}", "ptldb.query")
        for name in _QUERY_METHODS + _SCAN_METHODS
    ),
    Target("repro.minidb.session:Session.execute", "session.execute"),
    Target("repro.minidb.sql.executor:Executor.run", "executor.row"),
    Target("repro.minidb.sql.vectorized:BatchExecutor.run", "executor.batch"),
    # Table.decode resolves the codec functions catalog imported by name.
    Target("repro.minidb.catalog:decode_record", "decode.record"),
    Target("repro.minidb.catalog:decode_columnar", "decode.columnar"),
    Target("repro.minidb.btree:BTree.search", "btree.search"),
    Target("repro.minidb.buffer:BufferPool.get", "buffer.get"),
    Target("repro.minidb.buffer:BufferPool.prefetch", "buffer.prefetch"),
    Target("repro.minidb.disk:DiskManager.read_page", "disk.read"),
    Target("repro.minidb.disk:DiskManager.read_run", "disk.read"),
    Target("repro.minidb.disk:DiskManager.write_page", "disk.write"),
    Target("repro.minidb.wal:WriteAheadLog.on_page_dirty", "wal.undo"),
    Target("repro.minidb.wal:WriteAheadLog.commit", "wal.commit"),
    Target("repro.minidb.wal:WriteAheadLog.checkpoint", "wal.checkpoint"),
    Target("repro.serving.shards:build_shards", "serving.shard_build"),
    Target("repro.serving.router:Router.start", "serving.spawn"),
    *(
        Target(f"repro.serving.router:Router.{name}", "serving.router")
        for name in _QUERY_METHODS
    ),
    Target("repro.serving.router:WorkerHandle.request", "serving.enqueue"),
    Target("repro.serving.router:Ticket.wait", "serving.wait"),
    # The router imported the frame functions by name.
    Target("repro.serving.router:send_message", "serving.send"),
    Target("repro.serving.router:recv_message", "serving.recv"),
    Target("repro.serving.protocol:_read_exact", "serving.pipe_read"),
]

#: Per-layer metric -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "timetable.generate_s": "s",
    "labeling.build_s": "s",
    "labeling.cache_load_s": "s",
    "labeling.floor_p50_ms": "ms",
    "labeling.floor_ratio": "ratio",
    "ptldb.load_s": "s",
    "ptldb.aux_build_s": "s",
    "ptldb.self_ms": "ms",
    "ptldb.bytes_per_label": "bytes",
    "session.self_ms": "ms",
    "session.plan_cache_hit_ratio": "ratio",
    "session.statements_per_query": "count",
    "executor.self_ms": "ms",
    "executor.rows_per_result": "count",
    "executor.row_engine_share": "ratio",
    "op.index_scan_ms": "ms",
    "op.inl_probe_ms": "ms",
    "op.project_set_ms": "ms",
    "op.hash_join_ms": "ms",
    "op.group_aggregate_ms": "ms",
    "op.sort_ms": "ms",
    "op.seq_scan_ms": "ms",
    "decode.self_ms": "ms",
    "decode.calls_per_query": "count",
    "btree.self_ms": "ms",
    "btree.searches_per_query": "count",
    "buffer.self_ms": "ms",
    "buffer.hit_ratio": "ratio",
    "buffer.evictions_per_query": "count",
    "disk.self_ms": "ms",
    "disk.page_reads_per_query": "count",
    "disk.sequential_share": "ratio",
    "wal.self_s": "s",
    "wal.bytes_written": "bytes",
    "serving.shard_build_s": "s",
    "serving.spawn_s": "s",
    "serving.worker_service_ms": "ms",
    "serving.router_self_ms": "ms",
    "serving.protocol_ms": "ms",
    "serving.wait_ms": "ms",
    "serving.fanout": "count",
    "serving.cache_hit_ratio": "ratio",
    "serving.admission_rejects": "count",
    "qps": "1/s",
    "v2v_p95_ms": "ms",
    "knn_p50_ms": "ms",
    "otm_p50_ms": "ms",
    "scan_p50_ms": "ms",
    "sim_io_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}

#: Stage names of ``QueryTrace.stage_totals()`` behind each ``op.*`` metric.
OP_STAGES = {
    "op.index_scan_ms": ("Index Scan",),
    "op.inl_probe_ms": ("Index Nested Loop",),
    "op.project_set_ms": ("ProjectSet",),
    "op.hash_join_ms": ("Hash Join",),
    "op.group_aggregate_ms": ("GroupAggregate",),
    "op.sort_ms": ("Sort", "Top-K Sort"),
    "op.seq_scan_ms": ("Seq Scan",),
}

#: Largest share of the traced requests' wall time that the layer self
#: times may leave unattributed (``trace.unattributed_share``).
RECONCILE_TOLERANCE = 0.05


def layer_of(name: str) -> str:
    return name.partition(".")[0]


class SpanReport:
    """Span totals split into setup (no request) and request work."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.self_ns = self_times(spans)
        self.in_request = [s for s in spans if s.request >= 0]
        self.requests = len({s.request for s in self.in_request})

    def total_s(self, name: str) -> float:
        """Summed duration of spans called *name*, in seconds."""
        return sum(s.duration_ns for s in self.spans if s.name == name) / 1e9

    def outside_s(self, name: str, child_layer: str) -> float:
        """Duration of *name* spans minus their direct *child_layer* children."""
        ids = {s.span_id for s in self.spans if s.name == name}
        inner = sum(
            s.duration_ns for s in self.spans
            if s.parent in ids and layer_of(s.name) == child_layer
        )
        outer = sum(s.duration_ns for s in self.spans if s.span_id in ids)
        return (outer - inner) / 1e9

    def layer_self_ns(self, layer: str, in_request: bool = True) -> int:
        spans = self.in_request if in_request else self.spans
        return sum(
            self.self_ns[s.span_id] for s in spans if layer_of(s.name) == layer
        )

    def per_request_ms(self, layer: str) -> float:
        if not self.requests:
            return 0.0
        return self.layer_self_ns(layer) / 1e6 / self.requests

    def per_request(self, name: str) -> float:
        """Calls of span *name* per traced request."""
        count = sum(1 for s in self.in_request if s.name == name)
        return count / self.requests if self.requests else 0.0

    def request_self_by_layer_ns(self) -> dict[str, int]:
        """Self time inside requests, per layer; sums to the requests' spans."""
        out: dict[str, int] = {}
        for s in self.in_request:
            layer = layer_of(s.name)
            out[layer] = out.get(layer, 0) + self.self_ns[s.span_id]
        return out

    def row_engine_share(self) -> float:
        """Share of statements that ran on the row ``Executor``: outermost
        ``executor.row`` spans over ``session.execute`` spans. Counted over
        the measured requests, or over set-up where no request ran one."""
        for in_request in (True, False):
            spans = self.in_request if in_request else self.spans
            statements = sum(1 for s in spans if s.name == "session.execute")
            if statements:
                break
        else:
            return 0.0
        by_id = {s.span_id: s for s in spans}

        def nested_in_row(span: Span) -> bool:
            parent = by_id.get(span.parent)
            while parent is not None:
                if parent.name == "executor.row":
                    return True
                parent = by_id.get(parent.parent)
            return False

        rows = sum(
            1 for s in spans
            if s.name == "executor.row" and not nested_in_row(s)
        )
        return rows / statements
