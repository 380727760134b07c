"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each public function named in ``TARGETS`` by a
wrapper that records a span (name, start, end, parent span, job).  Modules
bind these names with ``from .x import f``, so the wrapper replaces the name
in every ``sodlab`` module namespace that holds the original object, not only
in the defining module.  ``linalg`` is not wrapped: its functions run millions
of times per pass and a wrapper would swamp them; their cost shows in the
self time of their callers.
"""

from __future__ import annotations

import functools
import json
import sys
import time

TARGETS = {
    "linprog": ("forced_tight", "lp_optimize", "feasible_point",
                "strict_feasible", "enumerate_lattice"),
    "zonotope": ("face_signature_at", "min_radius", "member", "member_eps",
                 "realizable_face_patterns", "is_generic", "is_weakly_generic",
                 "supporting_lambda"),
    "partition": ("partition_region", "signature_of", "cell_members",
                  "window_box"),
    "sod": ("enumerate_sod", "certify_nccr"),
    "reps": ("construct_rep", "has_t_stable_point", "find_destabilizer",
             "weight_signs"),
    "rootdata": ("build_group", "levi", "LeviDatum.invariant_vectors"),
    "characters": ("weyl_dim", "irr_character", "sym_power_character",
                   "hom_block_dims"),
    "report": ("run_job", "render"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)

# Exact counts recorded at the span boundaries, besides each span's calls.
COUNTERS = ("linprog.enumerate_lattice.points_tested",
            "linprog.enumerate_lattice.points_accepted",
            "zonotope.realizable_face_patterns.patterns_tested",
            "zonotope.realizable_face_patterns.patterns_realized",
            "report.render.bytes")


class WrapError(RuntimeError):
    """A function the tracer was told to wrap does not exist."""


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent, job)
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.job = None
        self._stack: list[list] = []   # [span id, start, child seconds]
        self._restore: list[tuple] = []

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, fn, counted=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [len(self.spans), clock(), 0.0]
            self.spans.append(None)
            stack = self._stack
            stack.append(frame)
            try:
                if counted is None:
                    return fn(*args, **kwargs)
                return counted(fn, args, kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += dur
                self.calls[name] += 1
                self.self_s[name] += dur - frame[2]
                self.spans[frame[0]] = (frame[0], name, frame[1], end,
                                        None if parent is None else parent[0],
                                        self.job)
        return wrapper

    # -- counters -----------------------------------------------------------

    def _enumerate_lattice(self, fn, args, kwargs):
        counts = self.counts

        def predicate(point, _inner=args[0]):
            counts["linprog.enumerate_lattice.points_tested"] += 1
            ok = _inner(point)
            if ok:
                counts["linprog.enumerate_lattice.points_accepted"] += 1
            return ok
        return fn(predicate, *args[1:], **kwargs)

    def _realizable_face_patterns(self, fn, args, kwargs):
        from sodlab.linalg import is_zero_vec, primitive, vec
        out = fn(*args, **kwargs)
        lines = {primitive(vec(g)) for g in args[0] if not is_zero_vec(vec(g))}
        self.counts["zonotope.realizable_face_patterns.patterns_tested"] += \
            3 ** len(lines) - 1
        self.counts["zonotope.realizable_face_patterns.patterns_realized"] += \
            len(out)
        return out

    def _render(self, fn, args, kwargs):
        out = fn(*args, **kwargs)
        self.counts["report.render.bytes"] += len(out)
        return out

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; raise WrapError naming any that is missing."""
        import importlib
        modules = {m: importlib.import_module(f"sodlab.{m}") for m in TARGETS}
        missing = []
        plan = []
        for mod, fns in TARGETS.items():
            for fn_name in fns:
                owner = modules[mod]
                attr = fn_name
                if "." in fn_name:
                    cls_name, attr = fn_name.split(".")
                    owner = getattr(owner, cls_name, None)
                original = getattr(owner, attr, None) if owner is not None else None
                if not callable(original):
                    missing.append(f"sodlab.{mod}.{fn_name}")
                    continue
                plan.append((f"{mod}.{fn_name}", owner, attr, original))
        if missing:
            raise WrapError("cannot wrap missing functions: " + ", ".join(missing))
        namespaces = [m for name, m in sys.modules.items()
                      if (name == "sodlab" or name.startswith("sodlab.")) and m]
        counted = {"linprog.enumerate_lattice": self._enumerate_lattice,
                   "zonotope.realizable_face_patterns":
                       self._realizable_face_patterns,
                   "report.render": self._render}
        for name, owner, attr, original in plan:
            wrapper = self._wrap(name, original, counted.get(name))
            targets = [owner] if isinstance(owner, type) else namespaces
            for ns in targets:
                if ns.__dict__.get(attr) is original:
                    self._restore.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._restore):
            setattr(ns, attr, original)
        self._restore.clear()

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")

    def summary(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s,
                "counts": self.counts}
