"""Deterministic fault injection for the execution substrate.

The paper's availability argument (Section 5: isolated failure domains,
write-stream retention replay, versioned-write staleness avoidance,
query renewal) is only believable if the implementation survives the
failures it claims to mask.  This module provides the chaos half of
that proof: a :class:`FaultPlan` describes *which* messages fail *how*,
and the resulting :class:`FaultInjector` is plugged into the execution
models (per-mailbox faults), the broker (per-channel faults) and the
cluster's grid tasks (task crashes).

Fault taxonomy
--------------

=========  ==============================================================
``drop``       the message silently disappears
``duplicate``  the message is delivered 1 + ``copies`` times
``delay``      delivery is postponed by ``delay`` seconds (virtual
               seconds under the inline model)
``reorder``    delivery is postponed by a random delay in
               ``(0, delay]`` — messages overtake each other
``corrupt``    one top-level field of the payload is destroyed
``crash``      the receiving *task* dies mid-stream (checked by the
               grid task before processing the tuple)
``error``      the operation raises :class:`~repro.errors.
               InjectedFaultError` at the call site (``Broker.publish``)
               — this exercises the refused-publish path: the client
               raises, counts it and queues a resync (DESIGN §8)
=========  ==============================================================

Rules are **probabilistic** (``probability`` < 1) or **scripted**
(``at`` names exact 0-based indices of the rule's eligible-message
counter; ``after``/``max_count`` window a rule).  All randomness comes
from one seeded RNG, so under the deterministic inline execution model
— where message arrival order is reproducible — the entire fault
schedule is reproducible as well: same seed, same faults, same
transcript.

A fired rule never re-fires on its own products: duplicated and delayed
copies re-enter the substrate through direct (unfaulted) delivery
paths.
"""

from __future__ import annotations

import fnmatch
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ExecutionConfigError
from repro.obs.telemetry import NULL_TELEMETRY

# Scopes a rule can bind to.
CHANNEL = "channel"
MAILBOX = "mailbox"

# Fault kinds.
DROP = "drop"
DUPLICATE = "duplicate"
DELAY = "delay"
REORDER = "reorder"
CORRUPT = "corrupt"
CRASH = "crash"
ERROR = "error"

_KINDS = (DROP, DUPLICATE, DELAY, REORDER, CORRUPT, CRASH, ERROR)

#: What a ``corrupt`` fault writes over the field it destroys.
_CORRUPTED = "\x00corrupted"
_SCOPES = (CHANNEL, MAILBOX)


@dataclass
class FaultRule:
    """One fault source: where it binds, what it does, when it fires."""

    #: ``"channel"`` (broker publish) or ``"mailbox"`` (execution model
    #: delivery; mailbox names double as task names, e.g. ``matching[3]``).
    scope: str
    #: ``fnmatch`` pattern over the channel / mailbox name.
    pattern: str
    #: One of the fault kinds above.
    kind: str
    #: Chance of firing per eligible message (1.0 = always).
    probability: float = 1.0
    #: Seconds of delay (``delay``) or the reorder window (``reorder``).
    delay: float = 0.0
    #: Extra copies delivered on ``duplicate``.
    copies: int = 1
    #: Skip the first *after* eligible messages.
    after: int = 0
    #: Stop firing after this many firings (None = unlimited).
    max_count: Optional[int] = None
    #: Scripted mode: fire exactly at these 0-based eligible-message
    #: indices (overrides ``probability``).
    at: Optional[Sequence[int]] = None

    def __post_init__(self) -> None:
        if self.scope not in _SCOPES:
            raise ExecutionConfigError(f"unknown fault scope: {self.scope!r}")
        if self.kind not in _KINDS:
            raise ExecutionConfigError(f"unknown fault kind: {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ExecutionConfigError("probability must be in [0, 1]")
        if self.delay < 0:
            raise ExecutionConfigError("delay must be >= 0")
        if self.kind in (DELAY, REORDER) and self.delay <= 0:
            raise ExecutionConfigError(f"{self.kind} rules need delay > 0")
        if self.copies < 1:
            raise ExecutionConfigError("copies must be >= 1")
        if self.after < 0:
            raise ExecutionConfigError("after must be >= 0")
        if self.max_count is not None and self.max_count < 1:
            raise ExecutionConfigError("max_count must be >= 1 or None")


@dataclass
class FaultPlan:
    """A reproducible fault schedule: rules plus one RNG seed."""

    rules: List[FaultRule] = field(default_factory=list)
    seed: int = 0

    def rule(self, *args: Any, **kwargs: Any) -> "FaultPlan":
        """Append a :class:`FaultRule` (chainable builder)."""
        self.rules.append(FaultRule(*args, **kwargs))
        return self

    def build(self) -> "FaultInjector":
        return FaultInjector(self)


@dataclass
class FaultDecision:
    """What to do with one message, as decided by the injector."""

    drop: bool = False
    copies: int = 1
    delay: float = 0.0
    payload: Any = None
    error: bool = False

    @property
    def clean(self) -> bool:
        return (not self.drop and not self.error and self.copies == 1
                and self.delay == 0.0)


class _RuleState:
    """Mutable per-rule bookkeeping (eligible counter, firings)."""

    __slots__ = ("rule", "seen", "fired", "at")

    def __init__(self, rule: FaultRule):
        self.rule = rule
        self.seen = 0
        self.fired = 0
        self.at = None if rule.at is None else set(rule.at)


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against the message flow.

    Thread-safe; deterministic when the message flow itself is (inline
    execution model).  ``disarm()`` ends the chaos window — decisions
    become clean pass-throughs, which is how tests separate the fault
    phase from the convergence phase.
    """

    def __init__(self, plan: FaultPlan):
        import random

        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._states = [_RuleState(rule) for rule in plan.rules]
        self._lock = threading.Lock()
        self._armed = True
        # Telemetry attribution: labeled counters per (kind, scope),
        # created lazily on first firing (no-ops when unbound).
        self._telemetry = NULL_TELEMETRY
        self._fault_counters: Dict[Any, Any] = {}
        # -- counters ---------------------------------------------------
        self.injected = 0
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.reordered = 0
        self.corrupted = 0
        self.crashes = 0
        self.errors = 0

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------

    def bind_telemetry(self, telemetry) -> None:
        """Attribute injected faults to labeled registry counters."""
        with self._lock:
            self._telemetry = NULL_TELEMETRY if telemetry is None else telemetry
            self._fault_counters = {}

    def _count_fault(self, kind: str, scope: str) -> None:
        """Bump ``faults.injected{kind=,scope=}`` (caller holds _lock)."""
        key = (kind, scope)
        counter = self._fault_counters.get(key)
        if counter is None:
            counter = self._telemetry.counter(
                "faults.injected", kind=kind, scope=scope
            )
            self._fault_counters[key] = counter
        counter.inc()

    def disarm(self) -> None:
        """Stop injecting; already-scheduled delayed copies still land."""
        with self._lock:
            self._armed = False

    def arm(self) -> None:
        with self._lock:
            self._armed = True

    @property
    def armed(self) -> bool:
        return self._armed

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def _fires(self, state: _RuleState) -> bool:
        """Advance a rule's eligible counter; True when it fires now."""
        rule = state.rule
        index = state.seen
        state.seen += 1
        if index < rule.after:
            return False
        if rule.max_count is not None and state.fired >= rule.max_count:
            return False
        if state.at is not None:
            fired = index in state.at
        elif rule.probability >= 1.0:
            fired = True
        else:
            fired = self._rng.random() < rule.probability
        if fired:
            state.fired += 1
        return fired

    def decide(self, scope: str, name: str, payload: Any) -> FaultDecision:
        """Evaluate all matching rules for one message.

        ``drop`` and ``error`` short-circuit; ``duplicate``/``delay``/
        ``reorder``/``corrupt`` compose (a message can be corrupted
        *and* duplicated).  ``crash`` rules are not evaluated here —
        they are task-level and checked via :meth:`crashes_task`.
        """
        decision = FaultDecision(payload=payload)
        with self._lock:
            if not self._armed:
                return decision
            for state in self._states:
                rule = state.rule
                if rule.scope != scope or rule.kind == CRASH:
                    continue
                if not fnmatch.fnmatchcase(name, rule.pattern):
                    continue
                if not self._fires(state):
                    continue
                self.injected += 1
                self._count_fault(rule.kind, scope)
                if rule.kind == DROP:
                    decision.drop = True
                    self.dropped += 1
                    return decision
                if rule.kind == ERROR:
                    decision.error = True
                    self.errors += 1
                    return decision
                if rule.kind == DUPLICATE:
                    decision.copies += rule.copies
                    self.duplicated += rule.copies
                elif rule.kind == DELAY:
                    decision.delay = max(decision.delay, rule.delay)
                    self.delayed += 1
                elif rule.kind == REORDER:
                    jitter = self._rng.random() * rule.delay
                    decision.delay = max(decision.delay, jitter)
                    self.reordered += 1
                elif rule.kind == CORRUPT:
                    decision.payload = self._corrupt(decision.payload)
                    self.corrupted += 1
        return decision

    def crashes_task(self, task_name: str) -> bool:
        """Check ``crash`` rules for one tuple about to be processed."""
        with self._lock:
            if not self._armed:
                return False
            for state in self._states:
                rule = state.rule
                if rule.kind != CRASH or rule.scope != MAILBOX:
                    continue
                if not fnmatch.fnmatchcase(task_name, rule.pattern):
                    continue
                if self._fires(state):
                    self.injected += 1
                    self.crashes += 1
                    self._count_fault(CRASH, MAILBOX)
                    return True
        return False

    def _corrupt(self, payload: Any) -> Any:
        """Destroy one top-level field of a dict or ``NamedTuple``
        payload (seeded); the published payload itself is left alone.

        The corruption is wire-safe (encodable by every codec)
        but semantically wrong
        — downstream handlers are expected to fail on it, which is what
        exercises the poisoned-task path.  A ``NamedTuple`` (a write's
        :class:`~repro.types.AfterImage`) keeps its type: the copy comes
        from ``_replace``.
        """
        if isinstance(payload, dict) and payload:
            corrupted = dict(payload)
            keys = sorted(corrupted, key=str)
            victim = keys[self._rng.randrange(len(keys))]
            corrupted[victim] = _CORRUPTED
            return corrupted
        fields = getattr(payload, "_fields", None)
        if isinstance(payload, tuple) and fields:
            victim = fields[self._rng.randrange(len(fields))]
            return payload._replace(**{victim: _CORRUPTED})  # type: ignore[attr-defined]
        return _CORRUPTED

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "armed": self._armed,
                "injected": self.injected,
                "dropped": self.dropped,
                "duplicated": self.duplicated,
                "delayed": self.delayed,
                "reordered": self.reordered,
                "corrupted": self.corrupted,
                "crashes": self.crashes,
                "errors": self.errors,
                "rules": [
                    {
                        "scope": state.rule.scope,
                        "pattern": state.rule.pattern,
                        "kind": state.rule.kind,
                        "seen": state.seen,
                        "fired": state.fired,
                    }
                    for state in self._states
                ],
            }

    def __repr__(self) -> str:
        return (
            f"FaultInjector({len(self._states)} rules, seed={self.plan.seed},"
            f" injected={self.injected})"
        )
