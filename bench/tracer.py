"""In-place tracing of the mevsearch layers, from outside the program.

``Tracer.install()`` replaces module attributes with timing wrappers and
``uninstall()`` puts the originals back.  Coarse calls (one per search or
check) each record a span: name, start, end, parent span and answer id.  Hot
calls (``apply_tx``, ``execute``, swaps, objective values, ``bind_alpha``) are
too many to keep one by one; each adds to a count, total and self time keyed
by its enclosing span and its name, so memory stays bounded by spans x names.

A call's self time is its duration minus the time of the traced calls made
directly under it.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

from mevsearch import compose, contracts, insertion, metrics, ordering, state

# (module, attribute) bindings of each traced function.  A function imported
# by name into another module is a separate binding and is wrapped there too.
COARSE = {
    "ordering.search": ((ordering, "search"), (metrics, "search")),
    "insertion.search_with_insertion": ((insertion, "search_with_insertion"),),
    "compose.check_composability": ((compose, "check_composability"),),
}
HOT = {
    "state.apply_tx": ((state, "apply_tx"), (ordering, "apply_tx"), (insertion, "apply_tx")),
    "contracts.execute": ((contracts, "execute"),),
    "contracts.amm_swap_exact_in": ((contracts, "amm_swap_exact_in"),),
    "metrics.objective": ((metrics.PlayerDelta, "value"), (metrics.AccountBalanceValue, "value")),
    "insertion.bind_alpha": ((insertion, "bind_alpha"),),
}
ROOT = "answer"

EXECUTE_KINDS = {
    state.Liquidate: "liquidate",
    state.CdpManipulate: "cdp",
    state.Bet: "bet",
    state.GetReward: "getreward",
}


def execute_kind(tx) -> str:
    action = tx.action
    if type(action) is state.Swap:
        return "swap_out" if action.exact_out else "swap_in"
    return EXECUTE_KINDS.get(type(action), "other")


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    answer: int
    child_ns: int = 0

    @property
    def self_ns(self) -> int:
        return self.end_ns - self.start_ns - self.child_ns


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        # One entry per open call: [child_ns, name].
        self._stack: list[list] = []
        self._span_stack: list[int] = []
        # (span index, name) -> [count, total_ns, self_ns]
        self.hot: dict[tuple[int, str], list[int]] = {}
        self.bottoms = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str, answer: int) -> int:
        parent = self._span_stack[-1] if self._span_stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter_ns(), 0, parent, answer))
        self._span_stack.append(index)
        self._stack.append([0, name])
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end_ns = time.perf_counter_ns()
        frame = self._stack.pop()
        self._span_stack.pop()
        span.child_ns = frame[0]
        if self._stack:
            self._stack[-1][0] += span.end_ns - span.start_ns

    @contextlib.contextmanager
    def answer(self, answer_id: int):
        """The root span of one answer."""
        index = self._open(ROOT, answer_id)
        try:
            yield
        finally:
            self._close(index)

    def _coarse(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            answer = tracer.spans[tracer._span_stack[-1]].answer if tracer._span_stack else -1
            index = tracer._open(name, answer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(index)

        return wrapper

    # -- hot calls -----------------------------------------------------------

    def _add(self, name: str, start: int, frame: list) -> None:
        dt = time.perf_counter_ns() - start
        stack = self._stack
        stack.pop()
        parent = stack[-1]
        parent[0] += dt
        key = (self._span_stack[-1], name)
        entry = self.hot.get(key)
        if entry is None:
            self.hot[key] = [1, dt, dt - frame[0]]
        else:
            entry[0] += 1
            entry[1] += dt
            entry[2] += dt - frame[0]

    def _hot(self, name: str, fn):
        tracer = self
        stack = self._stack
        clock = time.perf_counter_ns

        if name == "state.apply_tx":
            def wrapper(*args, **kwargs):
                frame = [0, name]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                except state.UnknownVenueError:
                    tracer.bottoms += 1
                    tracer._add(name, start, frame)
                    raise
                if result is None:
                    tracer.bottoms += 1
                tracer._add(name, start, frame)
                return result
        elif name == "contracts.execute":
            def wrapper(st, tx, contract):
                frame = [0, name]
                stack.append(frame)
                start = clock()
                try:
                    return fn(st, tx, contract)
                finally:
                    tracer._add(f"{name}.{execute_kind(tx)}", start, frame)
        elif name == "contracts.amm_swap_exact_in":
            def wrapper(*args, **kwargs):
                # Swaps made outside execute are the pruning rule's
                # commutation checks.
                where = "" if stack[-1][1] == "contracts.execute" else ".outside_execute"
                frame = [0, name]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._add(name + where, start, frame)
        else:
            def wrapper(*args, **kwargs):
                frame = [0, name]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._add(name, start, frame)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for table, make in ((COARSE, self._coarse), (HOT, self._hot)):
            for name, bindings in table.items():
                for owner, attr in bindings:
                    original = getattr(owner, attr)
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, make(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def totals(self, under: str | None = None) -> dict[str, list[int]]:
        """[count, total_ns, self_ns] per hot name, over every span or only
        those of the span name ``under``."""
        out: dict[str, list[int]] = {}
        for (index, name), (count, total, own) in self.hot.items():
            if under is not None and self.spans[index].name != under:
                continue
            acc = out.setdefault(name, [0, 0, 0])
            acc[0] += count
            acc[1] += total
            acc[2] += own
        return out

    def span_totals(self) -> dict[str, list[int]]:
        """[count, total_ns, self_ns] per span name."""
        out: dict[str, list[int]] = {}
        for span in self.spans:
            acc = out.setdefault(span.name, [0, 0, 0])
            acc[0] += 1
            acc[1] += span.end_ns - span.start_ns
            acc[2] += span.self_ns
        return out

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                 "parent": s.parent, "answer": s.answer, "self_ns": s.self_ns}
                for s in self.spans
            ],
            "hot": [
                {"span": index, "name": name, "count": c, "total_ns": t, "self_ns": o}
                for (index, name), (c, t, o) in sorted(self.hot.items())
            ],
        }
