"""Harness-side tracing: timing wrappers around public entry points.

The wrappers are installed from here (nothing inside ``src/`` knows
about them) around the calls *into* each layer.  A span records probe,
layer, start, end, its parent (through a thread-local stack) and the
saturation segment it ran in; a layer's self time is its spans'
duration minus the part their child spans cover.  Spans stay in memory
until the pass ends.

An entry point that no longer exists does not fail the run: its probe
is listed in ``Tracer.probe_errors`` and the metrics derived from it
are reported as ``null`` with that text.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Inputs kept per hot leaf for the isolated replay probes.
CAPTURE_LIMIT = 256

STORE = "store"
CLIENT = "core.client"
CODEC = "event.codec"
BROKER = "event.broker"
STREAM = "stream.runtime"
CLUSTER = "core.cluster"
FILTERING = "core.filtering"
INDEX = "query.index"
ENGINE = "query.engine"
SHARED = "query.shared"
SORTING = "core.sorting"
WIRE = "event.wire"
PROCESS = "runtime.process"

#: Layers whose self time is moving bytes and tuples, not deciding
#: anything about them (the dominance rules group them).
TRANSPORT_LAYERS = (CODEC, BROKER, STREAM, CLUSTER, WIRE, PROCESS)

_NOTIFY_PREFIX = "invalidb:notify"
_GRID_PREFIXES = ("invalidb:writes", "invalidb:queries")

# (probe, layer, module, class, method, value) — value names what the
# span's ``value`` field carries: the length of the result ("out"), of
# a positional argument ("arg0"/"arg1"; methods see self as arg0), or
# nothing.
_METHOD_PROBES: Tuple[Tuple[str, str, str, str, str, Optional[str]], ...] = (
    ("Collection.insert", STORE, "repro.store.collection", "Collection", "insert", None),
    ("Collection.update", STORE, "repro.store.collection", "Collection", "update", None),
    ("Collection.delete", STORE, "repro.store.collection", "Collection", "delete", None),
    ("Collection.find", STORE, "repro.store.collection", "Collection", "find", "out"),
    ("InvaliDBClient.forward_write", CLIENT, "repro.core.client", "InvaliDBClient",
     "forward_write", None),
    ("InvaliDBClient.subscribe", CLIENT, "repro.core.client", "InvaliDBClient",
     "subscribe", None),
    ("InvaliDBClient.unsubscribe", CLIENT, "repro.core.client", "InvaliDBClient",
     "unsubscribe", None),
    ("Broker.publish", BROKER, "repro.event.broker", "Broker", "publish", None),
    ("LocalRuntime.inject", STREAM, "repro.stream.runtime", "LocalRuntime", "inject", None),
    ("FilteringNode.process_write", FILTERING, "repro.core.filtering", "FilteringNode",
     "process_write", "out"),
    ("FilteringNode.register_query", FILTERING, "repro.core.filtering", "FilteringNode",
     "register_query", "out"),
    ("QueryIndex.candidates", INDEX, "repro.query.index", "QueryIndex", "candidates", "out"),
    ("QueryIndex.add", INDEX, "repro.query.index", "QueryIndex", "add", None),
    ("QueryIndex.remove", INDEX, "repro.query.index", "QueryIndex", "remove", None),
    ("Query.matches", ENGINE, "repro.query.engine", "Query", "matches", None),
    ("SharedPredicateDAG.begin", SHARED, "repro.query.shared", "SharedPredicateDAG",
     "begin", None),
    ("SortingNode.handle_event", SORTING, "repro.core.sorting", "SortingNode",
     "handle_event", "out"),
    ("SortingNode.register_query", SORTING, "repro.core.sorting", "SortingNode",
     "register_query", "out"),
    ("RemoteCell.request_batch", PROCESS, "repro.runtime.process", "RemoteCell",
     "request_batch", "arg1"),
)

#: Probes that scan many documents per call (see ``Tracer.traced``).
_SCANS = ("Collection.find", "FilteringNode.register_query")

#: Leaves whose inputs are captured for the replay probes.
_CAPTURED = ("QueryIndex.candidates", "Query.matches", "Codec.encode", "Codec.decode")


class Tracer:
    """Span store plus the install/uninstall of every wrapper."""

    def __init__(self) -> None:
        #: (span id, parent id, probe, layer, start ns, end ns, self ns,
        #: segment, value); appended when the span ends.
        self.spans: List[Tuple[int, int, str, str, int, int, int, int, int]] = []
        #: Saturation segment being timed (-1 outside timed segments).
        self.segment = -1
        self.probe_errors: Dict[str, str] = {}
        self.captured: Dict[str, List[Tuple[Any, ...]]] = {
            probe: [] for probe in _CAPTURED
        }
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- the wrapper -------------------------------------------------------

    def traced(
        self,
        fn: Callable[..., Any],
        probe: str,
        layer: str,
        value: Optional[str] = None,
        capture: bool = False,
    ) -> Callable[..., Any]:
        local, spans, ids = self._local, self.spans, self._ids
        clock = time.perf_counter_ns
        bucket = self.captured[probe] if capture else None
        # Codec calls made for the process hop belong to the wire layer.
        # Predicate evaluation is traced on the live write path only:
        # the bulk scans (the pull query, retained-write replay at
        # registration) keep their evaluation time, since one span per
        # scanned document would swamp the scan it measures.
        is_codec = layer == CODEC
        skip_under_scan = layer == ENGINE
        is_scan = probe in _SCANS

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            span_layer = layer
            if stack:
                parent = stack[-1]
                if skip_under_scan and parent[3]:
                    return fn(*args, **kwargs)
                if is_codec and parent[2] == PROCESS:
                    span_layer = WIRE
            span_id = next(ids)
            frame = [span_id, 0, span_layer, is_scan]
            stack.append(frame)
            measured = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if value == "out":
                    measured = len(result)
                elif value == "arg0":
                    measured = len(args[0])
                elif value == "arg1":
                    measured = len(args[1])
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent = -1
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                spans.append((span_id, parent, probe, span_layer, start, end,
                              duration - frame[1], self.segment, measured))
                if (bucket is not None and self.segment >= 0
                        and len(bucket) < CAPTURE_LIMIT):
                    bucket.append(args)

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _guard(self, probe: str, install: Callable[[], None]) -> None:
        try:
            install()
        except (ImportError, AttributeError, KeyError) as exc:
            self.probe_errors[probe] = f"{type(exc).__name__}: {exc}"

    def install(self) -> "Tracer":
        for spec in _METHOD_PROBES:
            self._guard(spec[0], lambda spec=spec: self._install_method(*spec))
        self._guard("Codec.encode", lambda: self._install_codecs("encode"))
        self._guard("Codec.decode", lambda: self._install_codecs("decode"))
        self._guard("Broker.subscribe", self._install_listeners)
        self._guard("ExecutionModel.mailbox", self._install_mailboxes)
        self._guard("TopologyBuilder.add_bolt", self._install_bolts)
        return self

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _install_method(self, probe: str, layer: str, module: str, cls: str,
                        method: str, value: Optional[str]) -> None:
        owner = getattr(importlib.import_module(module), cls)
        self._patch(owner, method, self.traced(
            owner.__dict__[method], probe, layer, value,
            capture=probe in _CAPTURED,
        ))

    def _install_codecs(self, direction: str) -> None:
        """``Codec.encode``/``decode`` (and the batch forms) on every
        concrete codec, whichever one the broker defaults to."""
        codec_module = importlib.import_module("repro.event.codec")
        importlib.import_module("repro.event.wire")  # registers BinaryCodec
        pending = list(codec_module.Codec.__subclasses__())
        found = False
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            for method in (direction, f"{direction}_batch"):
                if method in cls.__dict__:
                    found = True
                    self._patch(cls, method, self.traced(
                        cls.__dict__[method], f"Codec.{direction}", CODEC,
                        value="out" if direction == "encode" else "arg1",
                        capture=method == direction,
                    ))
        if not found:
            raise AttributeError(f"no Codec subclass defines {direction}")

    def _install_listeners(self) -> None:
        """Listeners handed to ``Broker.subscribe``/``psubscribe``, named
        by channel: the notification channel is the client's delivery
        path, the write and query channels are the cluster's intake."""
        broker = importlib.import_module("repro.event.broker").Broker

        def wrap_subscribe(original: Callable[..., Any]) -> Callable[..., Any]:
            def subscribe(broker_self: Any, channel: str, listener: Any) -> Any:
                if channel.startswith(_NOTIFY_PREFIX):
                    probe, layer = "listener:notify", CLIENT
                elif channel.startswith(_GRID_PREFIXES):
                    probe, layer = f"listener:{channel.split(':')[1]}", CLUSTER
                else:
                    probe, layer = "listener:other", BROKER
                return original(broker_self, channel,
                                self.traced(listener, probe, layer))
            return subscribe

        for method in ("subscribe", "psubscribe"):
            self._patch(broker, method, wrap_subscribe(broker.__dict__[method]))

    def _install_mailboxes(self) -> None:
        """Handlers handed to ``ExecutionModel.mailbox``: the broker's
        dispatch loop and the stream runtime's per-task batch loops."""
        execution = importlib.import_module("repro.runtime.execution")

        def wrap_mailbox(original: Callable[..., Any]) -> Callable[..., Any]:
            def mailbox(model: Any, name: str, handler: Any,
                        *args: Any, **kwargs: Any) -> Any:
                if name.endswith("-dispatch"):
                    probe, layer = "mailbox:dispatch", BROKER
                else:
                    probe, layer = f"mailbox:{name.split('[')[0]}", STREAM
                return original(model, name,
                                self.traced(handler, probe, layer, value="arg0"),
                                *args, **kwargs)
            return mailbox

        for cls_name in ("ThreadedExecutionModel", "InlineExecutionModel"):
            cls = getattr(execution, cls_name)
            self._patch(cls, "mailbox", wrap_mailbox(cls.__dict__["mailbox"]))

    def _install_bolts(self) -> None:
        """Bolts handed to ``TopologyBuilder.add_bolt``: the cluster's
        ingestion, matching and sorting stage code."""
        builder = importlib.import_module("repro.stream.topology").TopologyBuilder
        original = builder.__dict__["add_bolt"]
        patched: set = set()

        def add_bolt(builder_self: Any, name: str, bolt: Any,
                     *args: Any, **kwargs: Any) -> Any:
            cls = type(bolt)
            if cls not in patched:
                patched.add(cls)
                label = f"bolt:{cls.__name__.strip('_')}"
                for method in ("process", "process_batch"):
                    if method in cls.__dict__:
                        self._patch(cls, method, self.traced(
                            cls.__dict__[method], label, CLUSTER))
            return original(builder_self, name, bolt, *args, **kwargs)

        self._patch(builder, "add_bolt", add_bolt)

    def dump(self) -> Dict[str, Any]:
        return {
            "fields": ["id", "parent", "probe", "layer", "start_ns", "end_ns",
                       "self_ns", "segment", "value"],
            "spans": self.spans,
        }


class ProbeTotals:
    """Count, duration, self time and value sum of one probe's spans."""

    __slots__ = ("count", "total_ns", "self_ns", "value", "durations")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0
        self.value = 0
        self.durations: List[int] = []


def aggregate(
    tracer: Tracer, in_segments: bool
) -> Tuple[Dict[str, ProbeTotals], Dict[str, int]]:
    """Per-probe totals and per-layer self time, over the spans of timed
    segments (*in_segments*) or over every span of the pass."""
    probes: Dict[str, ProbeTotals] = {}
    layers: Dict[str, int] = {}
    for _, _, probe, layer, start, end, self_ns, segment, value in tracer.spans:
        if in_segments and segment < 0:
            continue
        # A codec span reassigned to the wire layer is a wire probe.
        key = probe if layer != WIRE or not probe.startswith("Codec.") else (
            f"Wire.{probe.split('.')[1]}")
        totals = probes.get(key)
        if totals is None:
            totals = probes[key] = ProbeTotals()
        totals.count += 1
        totals.total_ns += end - start
        totals.self_ns += self_ns
        totals.value += value
        totals.durations.append(end - start)
        layers[layer] = layers.get(layer, 0) + self_ns
    return probes, layers
