"""Span tracing for the traced benchmark mode, applied from outside the
program.

`Tracer.patched(ts)` replaces the functions that teamsem's modules import
from one another with timing wrappers, under the names the callers look
them up by (for example `teamsem.evaluator.tarski_eval`), and puts the
originals back on exit.  Recursive definitions are never wrapped: a
recursion goes through its own module's binding, which stays untouched,
so one span covers one call from another layer.

Every wrapped call opens a frame on a stack.  When it closes, its
duration is added to its parent's child time, so a layer's self time is
its span time minus the time of the spans it caused.  Coarse calls (one
request, one translation, one catalog check) are kept as full spans with
name, start, end, parent and request id.  Hot leaf calls (hundreds of
thousands per pass) are folded into one aggregate span per request,
parent span, caller and name, which keeps memory bounded.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name): the cross-module bindings the program's
# callers use.  Spans whose name is in FULL_SPANS are stored one by one.
PATCHES = (
    ("harness", "compile_fo", "model.compile_fo"),
    ("harness", "translate", "translator.translate"),
    ("harness", "team_project", "model.team_ops"),
    ("harness", "team_restrict", "model.team_ops"),
    ("harness", "find_small_witness", "analysis.find_small_witness"),
    ("harness", "free_variables", "syntax.free_variables"),
    ("evaluator", "tarski_eval", "model.tarski_eval"),
    ("evaluator", "eval_atom", "atoms.eval_atom"),
    ("evaluator", "team_restrict", "model.team_ops"),
    ("evaluator", "duplicate", "model.team_ops"),
    ("evaluator", "supplement", "model.team_ops"),
    ("evaluator", "enumerate_covers", "model.team_ops"),
    ("evaluator", "enumerate_choice_functions", "model.team_ops"),
    ("evaluator", "free_variables", "syntax.free_variables"),
    ("atoms", "tarski_eval", "model.tarski_eval"),
    ("atoms", "team_project", "model.team_ops"),
    ("atoms", "free_variables", "syntax.free_variables"),
    ("atoms", "fo_definition_agrees", "atoms.fo_definition_agrees"),
    ("atoms", "check_upwards_closed", "atoms.check_upwards_closed"),
    ("atoms", "check_downwards_closed", "atoms.check_downwards_closed"),
    ("atoms", "check_boundedness", "atoms.check_boundedness"),
    ("analysis", "find_small_witness", "analysis.find_small_witness"),
    ("analysis", "duplicate", "model.team_ops"),
    ("analysis", "free_variables", "syntax.free_variables"),
    ("translator", "free_variables", "syntax.free_variables"),
)
GENERATORS = ("enumerate_covers", "enumerate_choice_functions")
FULL_SPANS = {
    "request",
    "model.compile_fo",
    "translator.translate",
    "atoms.fo_definition_agrees",
    "atoms.check_upwards_closed",
    "atoms.check_downwards_closed",
    "atoms.check_boundedness",
    "atoms.register_custom",
}

ROOT_FRAME = "root"


class Tracer:
    """Frames, totals and stored spans for the traced passes of one run."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.by_caller: dict[tuple[str, str], int] = defaultdict(int)
        self.spans: list[dict] = []
        self.leaves: dict[tuple, list] = {}
        self.stats: list = []  # EvalStats of every Evaluator built while traced
        self.sentences: list = []  # every sentence the translator returned
        self.request_id = -1
        # frame: [name, start, child time, id of the nearest full span, full?]
        self._stack: list[list] = [[ROOT_FRAME, 0.0, 0.0, None, True]]

    def reset_counts(self) -> None:
        """Start a new traced pass; stored spans are kept."""
        self.calls.clear()
        self.total.clear()
        self.self_time.clear()
        self.by_caller.clear()
        self.stats = []
        self.sentences = []

    # -- frames ----------------------------------------------------------------

    def _open(self, name: str, full: bool) -> list:
        parent = self._stack[-1]
        frame = [name, perf_counter(), 0.0, parent[3], full]
        if full:
            frame[3] = len(self.spans)
            self.spans.append(
                {
                    "id": frame[3],
                    "name": name,
                    "parent": parent[3],
                    "request": self.request_id,
                    "start": frame[1],
                }
            )
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, count: int = 1) -> None:
        end = perf_counter()
        self._stack.pop()
        parent = self._stack[-1]
        name, start, child, span_id, full = frame
        dur = end - start
        parent[2] += dur
        self.calls[name] += count
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.by_caller[(parent[0], name)] += count
        if full:
            self.spans[span_id]["end"] = end
            return
        key = (self.request_id, span_id, parent[0], name)
        leaf = self.leaves.get(key)
        if leaf is None:
            self.leaves[key] = [count, start, end, dur]
        else:
            leaf[0] += count
            leaf[2] = end
            leaf[3] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._open(name, name in FULL_SPANS)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, fn, name: str, suffix=None):
        """`fn` under a span called `name` (plus `.suffix(args)` if given)."""
        full = name in FULL_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name if suffix is None else f"{name}.{suffix(args)}", full)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame)

        return traced

    def wrap_generator(self, fn, name: str):
        """A generator function whose steps are timed; the first step
        counts the call, since the caller is suspended in between."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            count = 1
            while True:
                frame = self._open(name, False)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(frame, count)
                    count = 0
                yield item

        return traced

    # -- patching --------------------------------------------------------------

    @contextlib.contextmanager
    def patched(self, ts):
        """Install the wrappers on the loaded program `ts` for one pass."""
        saved = []

        def put(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        for module_name, attr, name in PATCHES:
            module = getattr(ts, module_name)
            fn = getattr(module, attr)
            if attr in GENERATORS:
                put(module, attr, self.wrap_generator(fn, name))
            elif attr == "compile_fo":
                put(module, attr, self._wrap_compile(fn))
            elif attr == "translate":
                put(module, attr, self._wrap_translate(fn))
            elif attr == "fo_definition_agrees":
                put(module, attr, self.wrap(fn, name, lambda args: args[0].name))
            else:
                put(module, attr, self.wrap(fn, name))
        evaluator_cls = ts.evaluator.Evaluator
        put(evaluator_cls, "evaluate", self.wrap(evaluator_cls.evaluate, "evaluator.evaluate"))
        put(evaluator_cls, "__init__", self._wrap_init(evaluator_cls.__init__))
        registry_cls = ts.atoms.AtomRegistry
        put(registry_cls, "register_custom", self.wrap(registry_cls.register_custom, "atoms.register_custom"))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def _wrap_compile(self, compile_fo):
        compile_traced = self.wrap(compile_fo, "model.compile_fo")

        def traced(*args, **kwargs):
            return self.wrap(compile_traced(*args, **kwargs), "model.sentence_eval")

        return traced

    def _wrap_translate(self, translate):
        translate_traced = self.wrap(translate, "translator.translate")

        def traced(*args, **kwargs):
            result = translate_traced(*args, **kwargs)
            self.sentences.append(result.sentence)
            return result

        return traced

    def _wrap_init(self, init):
        @functools.wraps(init)
        def traced(evaluator, *args, **kwargs):
            init(evaluator, *args, **kwargs)
            self.stats.append(evaluator.stats)

        return traced

    # -- output ------------------------------------------------------------------

    def write(self, path, header: dict) -> None:
        """All stored spans and leaf aggregates as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                out.write(json.dumps(span, sort_keys=True) + "\n")
            for (request, parent, caller, name), (calls, start, end, total) in self.leaves.items():
                record = {
                    "name": name,
                    "parent": parent,
                    "caller": caller,
                    "request": request,
                    "calls": calls,
                    "start": start,
                    "end": end,
                    "total": total,
                }
                out.write(json.dumps(record, sort_keys=True) + "\n")
