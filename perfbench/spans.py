"""Spans around calls into buildmetrics' public functions, recorded from
outside the package.

A Tracer replaces a function on its module and on every other buildmetrics
module that bound the same object by name (the CLI does
`from .lexer import tokenize`, so patching lexer.tokenize alone would miss
its calls). Recursive functions such as tree.prune call themselves through
the patched module global, so their spans nest; per-layer figures therefore
use self time, never summed durations.
"""

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

_PACKAGE = "buildmetrics"


class Tracer:
    def __init__(self):
        # Each span: [name, start, end, parent index or -1, attribute].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object, object]] = []

    def wrap(self, module, attr: str, describe=None):
        """Record a span for every call of module.attr while installed;
        describe(args, result) may return an attribute kept on the span."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if describe is not None:
                span[4] = describe(args, result)
            return result

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == _PACKAGE and getattr(mod, attr, None) is original:
                self._bindings.append((mod, attr, original, traced))

    def install(self):
        for mod, attr, _, traced in self._bindings:
            setattr(mod, attr, traced)

    def restore(self):
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def take(self) -> list[list]:
        """Return the spans recorded so far and start afresh."""
        taken = list(self.spans)
        self.spans.clear()
        return taken

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its child spans
        cover. cli.main spans are keyed by command, as cli.main:<command>."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, attr) in enumerate(self.spans):
            key = f"{name}:{attr}" if name == "cli.main" else name
            totals[key] += (end - start) - child_time[k]
        return dict(totals)

    def attributes(self, name: str, outermost: bool = False) -> list:
        """Attributes of the spans called `name`; with outermost, only those
        whose parent span has another name."""
        return [
            span[4] for span in self.spans
            if span[0] == name
            and not (outermost and span[3] >= 0 and self.spans[span[3]][0] == name)
        ]

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)


def write_spans(spans: list[list], path: Path):
    """Write spans as JSON, with times relative to the first span's start."""
    origin = spans[0][1] if spans else 0.0
    doc = [
        {"name": n, "start": s - origin, "end": e - origin, "parent": p}
        for n, s, e, p, _ in spans
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
