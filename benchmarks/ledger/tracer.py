"""Outside-in span tracer: timing wrappers on the layers' public callables.

Nothing under ``src/`` knows about this file.  :meth:`Tracer.install` swaps a
timing wrapper onto each target in :data:`SPANS` — a class attribute, or a
module function rebound in every loaded ``repro.*`` namespace that imported
it — and :meth:`Tracer.restore` puts every original back (identity-checked).
Spans are kept in memory only: a stack of child-time accumulators gives each
span its self time (inclusive minus the part its child spans cover, minus the
wrappers' own calibrated cost), and an engine observer snapshots the totals
once per cycle so the per-cycle rows can be written out after the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

__all__ = [
    "SPANS",
    "SHARD_SPANS",
    "Tracer",
    "TracerError",
    "calibrate",
    "target_owner",
]

#: span name -> targets ``(module, class or None, attribute)``.  Several
#: targets under one name are alternative implementations of one seam (the
#: two view stores); a run uses one of them.
SPANS: dict[str, list[tuple[str, str | None, str]]] = {
    "core.node.begin_cycle": [("repro.core.node", "WhatsUpNode", "begin_cycle")],
    "core.node.on_gossip": [("repro.core.node", "WhatsUpNode", "on_gossip")],
    "core.node.receive_items": [("repro.core.node", "WhatsUpNode", "receive_items")],
    "core.node.receive_item": [("repro.core.node", "WhatsUpNode", "receive_item")],
    "core.node.publish": [("repro.core.node", "WhatsUpNode", "publish")],
    "gossip.rps.initiate": [("repro.gossip.rps", "RpsProtocol", "initiate")],
    "gossip.rps.handle": [("repro.gossip.rps", "RpsProtocol", "handle")],
    "gossip.vicinity.initiate": [
        ("repro.gossip.vicinity", "ClusteringProtocol", "initiate")
    ],
    "gossip.vicinity.handle": [
        ("repro.gossip.vicinity", "ClusteringProtocol", "handle")
    ],
    "gossip.vicinity.merge": [
        ("repro.gossip.vicinity", "ClusteringProtocol", "merge")
    ],
    "gossip.views.upsert_columns": [
        ("repro.gossip.views", "View", "upsert_columns"),
        ("repro.gossip.views", "ArrayView", "upsert_columns"),
    ],
    "gossip.views.keep_ranked": [
        ("repro.gossip.views", "View", "keep_ranked"),
        ("repro.gossip.views", "ArrayView", "keep_ranked"),
    ],
    "core.beep.forward": [("repro.core.beep", "BeepForwarder", "forward")],
    "core.beep.forward_batch": [
        ("repro.core.beep", "BeepForwarder", "forward_batch")
    ],
    "core.beep.dislike_targets": [
        ("repro.core.beep", "BeepForwarder", "dislike_targets")
    ],
    "core.similarity.score_candidates": [
        ("repro.core.similarity", None, "score_candidates")
    ],
    # metric names must start with a letter or digit, so the ``_native``
    # layer is spelled ``native`` in every metric
    "native.merge_rank": [("repro._native", "NativeKernel", "merge_rank")],
    "native.item_argmax": [("repro._native", "NativeKernel", "item_argmax")],
    "native.score_profiles": [("repro._native", "NativeKernel", "score_profiles")],
    "core.profiles.snapshot": [("repro.core.profiles", "UserProfile", "snapshot")],
    "core.profiles.integrate": [("repro.core.profiles", "ItemProfile", "integrate")],
    "core.news.clone_for_forward": [
        ("repro.core.news", "ItemCopy", "clone_for_forward")
    ],
    "simulation.engine.gossip": [("repro.simulation.engine", "CycleEngine", "gossip")],
    "simulation.engine.send_fanout": [
        ("repro.simulation.engine", "CycleEngine", "send_fanout")
    ],
    "simulation.engine.send_item": [
        ("repro.simulation.engine", "CycleEngine", "send_item")
    ],
    "simulation.events.log_deliveries": [
        ("repro.simulation.events", "DisseminationLog", "log_deliveries")
    ],
}
# Not spans, though the issue listed them: ``network.transport.attempt`` (two
# lines, 168 k calls on survey-lossy) and ``core.profiles.record_opinion``
# (about 1 us a call) cost more to wrap than to run, and with them the
# wrappers took 13 % of survey-lossy's window.  Their time is in the callers'
# self time: ``simulation.engine.send_item`` and ``core.node.receive_item(s)``.

#: parent-observed phases of a sharded run.  A sharded traced run installs
#: only these: its workers are forked from the traced process and their spans
#: are not harvested, so layer wrappers there would cost time and show nothing.
SHARD_SPANS: dict[str, list[tuple[str, str | None, str]]] = {
    "simulation.sharding.start": [
        ("repro.simulation.sharding", "ShardedCycleEngine", "__init__")
    ],
    "simulation.sharding.run": [
        ("repro.simulation.sharding", "ShardedCycleEngine", "run")
    ],
    "simulation.sharding.collect": [
        ("repro.simulation.sharding", "ShardedCycleEngine", "collect")
    ],
    "simulation.sharding.close": [
        ("repro.simulation.sharding", "ShardedCycleEngine", "close")
    ],
}


class TracerError(RuntimeError):
    """A span target is missing, or an attribute could not be restored."""


#: in place a wrapper costs about twice what the hot calibration loop below
#: measures, because real work between two calls cools its code and cells.
#: Measured in process, so free of host drift, by wrapping every span twice and
#: differencing the two layers' inclusive times (README, "trace_overhead").
IN_PLACE_FACTOR = 1.9


def _wrapping(inner: float, outer: float, clock=perf_counter):
    """``wrap(fn) -> (wrapper, read)``; all wrappers of one call share a stack.

    ``read()`` gives the wrapper's ``(calls, inclusive seconds, self seconds)``.
    *covered* is one cell shared by every wrapper: the seconds child spans
    have covered so far in the span now running.  A wrapper parks its parent's
    value, runs with a fresh zero, and on the way out hands the parent back
    its value plus this span's whole duration.  The wrapper's own cost is kept
    out of the self times: *inner* seconds of it fall between the two clock
    reads and come off this span, *outer* seconds fall outside them and are
    handed to the parent as covered.  Sums live in closure cells, not in a
    list: 22 % cheaper in place.  (A wrapper generated with *fn*'s own
    parameter list instead of ``*args, **kwargs``, and a shorter one for
    spans without children, measured no gain.)
    """
    covered = 0.0

    def wrap(fn):
        calls = 0
        inclusive = self_s = 0.0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nonlocal covered, calls, inclusive, self_s
            parent = covered
            covered = 0.0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                calls += 1
                inclusive += dt
                self_s += dt - covered - inner
                covered = parent + dt + outer

        return wrapper, lambda: (calls, inclusive, self_s)

    return wrap


def _noop(owner: object, item: object) -> None:
    return None


def calibrate(batches: int = 5, calls: int = 4000) -> tuple[float, float]:
    """``(inner, outer)`` seconds one wrapper adds to a call, measured now.

    A wrapped and a bare no-op are called in a hot loop, so the figure follows
    the host's speed at this moment; the fastest of a few batches keeps a
    burst of host noise out, and :data:`IN_PLACE_FACTOR` scales it to what the
    wrapper costs inside a run.
    """
    bare_s = wrapped_s = recorded_s = float("inf")
    for _ in range(batches):
        wrapped, read = _wrapping(0.0, 0.0)(_noop)
        t0 = perf_counter()
        for _ in range(calls):
            _noop(read, None)
        t1 = perf_counter()
        for _ in range(calls):
            wrapped(read, None)
        t2 = perf_counter()
        bare_s = min(bare_s, t1 - t0)
        wrapped_s = min(wrapped_s, t2 - t1)
        recorded_s = min(recorded_s, read()[1])
    inner = max(0.0, recorded_s - bare_s) / calls
    outer = max(0.0, wrapped_s - recorded_s) / calls
    return inner * IN_PLACE_FACTOR, outer * IN_PLACE_FACTOR


class Tracer:
    """In-memory span accumulators plus the patches that feed them."""

    def __init__(self, spans: dict[str, list[tuple[str, str | None, str]]]) -> None:
        self.spans = spans
        self.names = list(spans)
        #: per span, the ``read`` of each wrapper installed for it
        self._reads: list[list] = [[] for _ in self.names]
        #: seconds one wrapper adds to a call (set by :meth:`install`)
        self.per_call_s = 0.0
        #: (owner, attribute, original, wrapper) for every swapped attribute
        self._patched: list[tuple[object, str, object, object]] = []
        #: per-cycle snapshots: (cycle, time, :meth:`_sums` then)
        self._marks: list[tuple[int, float, list[tuple]]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Swap a timing wrapper onto every target (all-or-nothing)."""
        inner, outer = calibrate()
        self.per_call_s = inner + outer
        wrap = _wrapping(inner, outer)
        try:
            for idx, name in enumerate(self.names):
                for module_name, class_name, attr in self.spans[name]:
                    owner = target_owner(module_name, class_name)
                    original = vars(owner).get(attr)
                    if not callable(original):
                        raise TracerError(
                            f"span {name!r}: {module_name}."
                            f"{class_name + '.' if class_name else ''}{attr} "
                            "is not defined there any more"
                        )
                    wrapper, read = wrap(original)
                    self._reads[idx].append(read)
                    if class_name is None:
                        bound = _bindings(original)
                    else:
                        bound = [(owner, attr)]
                    for target, bound_name in bound:
                        setattr(target, bound_name, wrapper)
                        self._patched.append((target, bound_name, original, wrapper))
        except Exception:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original back; raise if one is not back by identity."""
        stuck = []
        while self._patched:
            owner, attr, original, wrapper = self._patched.pop()
            if vars(owner).get(attr) is wrapper:
                setattr(owner, attr, original)
            if vars(owner).get(attr) is not original:
                stuck.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        if stuck:
            raise TracerError(f"not restored: {', '.join(stuck)}")

    # -- per-cycle marks -----------------------------------------------------

    def on_cycle(self, engine: object, cycle: int) -> None:
        """Snapshot the totals: the engine observer, fired at each cycle end.

        Called once by hand with cycle ``-1`` to open the traced window.
        """
        self._marks.append((cycle, perf_counter(), self._sums()))

    # -- read-out -----------------------------------------------------------

    def _sums(self) -> list[tuple]:
        """Per span ``(calls, inclusive, self)`` over its wrappers, now."""
        return [
            tuple(map(sum, zip(*(read() for read in reads), strict=True)))
            for reads in self._reads
        ]

    def cycle_ms(self) -> list[float]:
        """Host milliseconds of each observed cycle, in order."""
        marks = self._marks
        return [
            (marks[i][1] - marks[i - 1][1]) * 1000.0 for i in range(1, len(marks))
        ]

    def rows(self) -> list[dict]:
        """One row per (cycle, span with calls in it): calls, inclusive, self."""
        out = []
        for (_c, _t, before), (cycle, _t1, after) in zip(
            self._marks, self._marks[1:], strict=False
        ):
            for name, old, new in zip(self.names, before, after, strict=True):
                if new[0] != old[0]:
                    out.append(
                        {
                            "cycle": cycle,
                            "span": name,
                            "calls": new[0] - old[0],
                            "inclusive_s": new[1] - old[1],
                            "self_s": new[2] - old[2],
                        }
                    )
        return out

    def totals(self, windowed: bool) -> dict[str, dict]:
        """``{span: {calls, inclusive_s, self_s}}`` of the run.

        *windowed*: between the first and the last cycle mark, which keeps
        set-up and collection out of the layer spans' shares; otherwise since
        install, for the sharding phases that lie outside the window.
        ``self_s`` is net of the wrappers' calibrated cost, ``inclusive_s`` is
        as the clock read it.
        """
        after = self._marks[-1][2] if windowed else self._sums()
        before = self._marks[0][2] if windowed else [(0, 0.0, 0.0)] * len(after)
        return {
            name: {
                "calls": new[0] - old[0],
                "inclusive_s": new[1] - old[1],
                "self_s": new[2] - old[2],
            }
            for name, old, new in zip(self.names, before, after, strict=True)
        }


def target_owner(module_name: str, class_name: str | None) -> object:
    """The module or class a span target's attribute is defined on."""
    module = importlib.import_module(module_name)
    return module if class_name is None else getattr(module, class_name)


def _bindings(fn: object) -> list[tuple[object, str]]:
    """``(module, name)`` wherever a loaded ``repro`` module binds *fn*."""
    return [
        (module, bound_name)
        for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and module is not None
        for bound_name, value in list(vars(module).items())
        if value is fn
    ]
