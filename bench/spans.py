"""Spans around calls into invbell's public functions, recorded from the benchmark.

`Tracer.installed()` rebinds each public function listed in LAYERS, in every
invbell module that holds a reference to it, to a wrapper that records a
span; leaving the block puts the originals back, so untraced work runs the
program unchanged.  A layer's self time is its spans' time minus the part
covered by their child spans.  Spans of the first few operations are kept
whole for the trace file; the rest only add to per-layer totals.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

import invbell
from invbell import cli, lhv, protocol, reality, stats

# Layer name -> (module, attribute) of each public function spanned.  The
# qcore algebra has no entry of its own: it runs inside the protocol calls.
LAYERS = {
    "protocol": [(protocol, "build_final_density"), (protocol, "outcome_distribution"), (protocol, "bell_state")],
    "stats": [
        (stats, "prob"),
        (stats, "conditional"),
        (stats, "marginal"),
        (stats, "sample"),
        (stats, "correlator"),
        (stats, "chsh_value"),
        (stats.SampleReport, "empirical"),
    ],
    "reality": [
        (reality, "hardy_chain_check"),
        (reality, "certainty_predictions"),
        (reality, "response_model_refutation"),
    ],
    "lhv": [(lhv, "conditional_table"), (lhv, "no_signaling_check"), (lhv, "local_polytope_check")],
    "cli": [(cli, "main"), (cli, "build_parser"), (cli, "resolve_config"), (cli, "run"), (cli, "render")],
}
PROGRAM_LAYERS = tuple(LAYERS)
KEEP_OPS = 3  # operations whose spans are kept whole for the trace file
_HOLDERS = (invbell, protocol, stats, reality, lhv, cli)


class Tracer:
    def __init__(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.spans: list[dict] = []
        self.ops = 0
        self._stack: list[list] = []
        self._next_id = 0

    def enter(self, name: str, layer: str) -> list:
        self._next_id += 1
        parent = self._stack[-1][4] if self._stack else None
        frame = [name, layer, time.perf_counter_ns(), 0, self._next_id, parent]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        name, layer, start, child_ns, span_id, parent = frame
        duration = end - start
        self.self_ns[layer] += duration - child_ns
        if self._stack:
            self._stack[-1][3] += duration
        if self.ops < KEEP_OPS:
            self.spans.append(
                {"op": self.ops, "id": span_id, "parent": parent, "name": name, "layer": layer,
                 "start_ns": start, "end_ns": end}
            )

    def op(self, label: str, fn):
        """Run one benchmark operation as a root span; returns fn's result."""
        frame = self.enter(label, "bench")
        try:
            return fn()
        finally:
            self.exit(frame)
            self.ops += 1

    def _wrap(self, name: str, layer: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.enter(name, layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every listed function to its traced wrapper for the duration of the block."""
        undo = []
        try:
            for layer, targets in LAYERS.items():
                for owner, attr in targets:
                    original = getattr(owner, attr)
                    name = f"{getattr(owner, '__name__', owner)}.{attr}".replace("invbell.", "")
                    wrapped = self._wrap(name, layer, original)
                    for holder in {owner, *_HOLDERS}:
                        if holder.__dict__.get(attr) is original:
                            setattr(holder, attr, wrapped)
                            undo.append((holder, attr, original))
            yield self
        finally:
            for holder, attr, original in reversed(undo):
                setattr(holder, attr, original)


def write_chrome_trace(spans_by_workload: dict[str, list[dict]], path: str) -> None:
    """Kept spans in Chrome trace-event form, one process lane per workload (Perfetto opens it)."""
    events = []
    for lane, spans in enumerate(spans_by_workload.values()):
        origin = min((s["start_ns"] for s in spans), default=0)
        events += [
            {"name": s["name"], "cat": s["layer"], "ph": "X", "pid": lane, "tid": 0,
             "ts": (s["start_ns"] - origin) / 1e3, "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
             "args": {"op": s["op"], "id": s["id"], "parent": s["parent"]}}
            for s in spans
        ]
    events += [{"name": "process_name", "ph": "M", "pid": lane, "args": {"name": name}}
               for lane, name in enumerate(spans_by_workload)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events}, fh)
