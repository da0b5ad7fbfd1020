"""Per-layer spans around the library's public functions, taken from outside.

Each function is wrapped at the module attribute its caller looks it up by
(``solver.error_at_beta``, ``analysis.is_simple``, ...), so no library
source changes.  The wrappers are in place only while an operation runs,
so output checks between operations are not traced.  Spans stay in memory.
"""

from __future__ import annotations

import contextlib
import functools
import time

# span name (defining module.function) -> modules whose attribute callers use
WRAPPED = {
    "curvature.find_abab_points": ("solver",),
    "curvature.build_h1": ("solver",),
    "curvature.compose": ("solver",),
    "curvature.normalize_total": ("solver",),
    "moebius.moebius_lift": ("solver",),
    "integrator.integrate_curve": ("solver",),
    "integrator.is_simple": ("solver", "analysis"),
    "integrator.curvature_samples": ("solver", "analysis"),
    "solver.synthesize": ("solver",),
    "solver.find_zero_beta": ("solver",),
    "solver.error_at_beta": ("solver",),
    "analysis.osserman_check": ("analysis",),
    "analysis.min_enclosing_circle": ("analysis",),
    "analysis.contact_components": ("analysis",),
    "analysis.contact_angular_gap": ("analysis",),
    "analysis.detect_vertices": ("analysis",),
}

# span fields, in order
NAME, START, END, PARENT, OP, RETURNED = range(6)


class Tracer:
    """In-memory span recorder for one process.

    A span is ``[name, start, end, parent index, op id, returned]``; the
    parent is the innermost span open when it started, -1 at the top.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._open: list[int] = []
        self._patches: list[tuple] = []  # (module, attribute, original, wrapper)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, self.op, False]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                span[RETURNED] = True
                return out
            finally:
                span[END] = time.perf_counter()
                self._open.pop()

        return traced

    @contextlib.contextmanager
    def recording(self, package, op: int):
        """Record the spans of operation ``op``: every function in WRAPPED is
        replaced at each caller's attribute for the duration, then restored.

        Fails when a caller no longer looks a function up where WRAPPED
        says, because its spans would then silently read zero.
        """
        if not self._patches:
            for name, callers in WRAPPED.items():
                module, attr = name.split(".")
                original = getattr(getattr(package, module), attr)
                wrapper = self.wrap(name, original)
                for caller in callers:
                    mod = getattr(package, caller)
                    if getattr(mod, attr, None) is not original:
                        raise RuntimeError(f"{caller}.{attr} is not {name}; update tracing.WRAPPED")
                    self._patches.append((mod, attr, original, wrapper))
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        self.op = op
        try:
            yield
        finally:
            self.op = None
            for mod, attr, original, _ in self._patches:
                setattr(mod, attr, original)

    def totals_by_op(self) -> dict[int, dict[str, list]]:
        """op id -> span name -> [self seconds, calls, inclusive seconds, returned calls].

        Self time is a span's duration minus the durations of its direct
        children; the process is single-threaded, so children nest inside
        their parent.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out: dict[int, dict[str, list]] = {}
        for i, s in enumerate(self.spans):
            dur = s[END] - s[START]
            acc = out.setdefault(s[OP], {}).setdefault(s[NAME], [0.0, 0, 0.0, 0])
            acc[0] += dur - child[i]
            acc[1] += 1
            acc[2] += dur
            acc[3] += int(s[RETURNED])
        return out
