"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the twistlab modules from outside the
package.  Each wrapped call records a span: name, start, end, parent span,
operation id and whether the call raised.  A function is patched in every
twistlab namespace that binds it (for example ``cli.butterfly_rows`` and the
re-exports in ``twistlab/__init__``), and methods are patched on their class.
Spans stay in memory until the pass ends.

Two kinds of call are too frequent for one span each: ``Phase.value`` and
``Multiplier.value`` run once per group pair, up to millions of times a
pass.  They only add to a call count and a time total, and their time stays
in the self time of the span that encloses them.  A generator such as
``butterfly_rows`` gets one span whose busy time is the sum of its steps, so
the consumer's work between steps is not counted as the generator's.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

import numpy as np

from twistlab import (
    algebra,
    cli,
    cohomology,
    groups,
    mishchenko,
    multipliers,
    phases,
    representations,
    spectral,
    verify,
)

SUITES = tuple(verify.suite_names())

# Every per-layer metric, in the order they are reported.
LAYER_METRICS = (
    "cli.emit_s", "cli.emit_bytes", "cli.self_s",
    "representations.rows_s", "representations.rows",
    "representations.fiber_stack_s", "representations.fibers",
    "representations.blochmap_s", "representations.blochmap_calls",
    "representations.left_regular_s", "representations.left_regular_dim_max",
    "spectral.eigh_s", "spectral.eigh_calls", "spectral.eigh_dim_max",
    "spectral.lapack_s", "spectral.lapack_matrices",
    "spectral.quadrature_self_s",
    "spectral.eta_s", "spectral.betti_s", "spectral.flow_s", "spectral.flow_samples",
    "spectral.path_cache_hit_frac",
    "algebra.convolve_s", "algebra.convolve_calls", "algebra.convolve_pairs",
    "multipliers.value_s", "multipliers.value_calls",
    "multipliers.verify_cocycle_s", "multipliers.equal_s",
    "phases.value_s", "phases.value_calls",
    "groups.ball_s", "groups.ball_elements",
    "cohomology.busy_s",
    "mishchenko.pairing_s", "mishchenko.verify_s",
) + tuple(f"verify.{suite}_s" for suite in SUITES)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "raised", "busy")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent  # index of the enclosing span, None at top level
        self.op = op
        self.raised = False
        self.busy = None  # summed step time of a generator span

    @property
    def duration(self) -> float:
        return self.busy if self.busy is not None else self.end - self.start


class Tracer:
    """Spans and counters of one pass; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None  # index of the running operation, stamped on each span
        self.counts = {name: 0 for name in LAYER_METRICS}
        self._path_calls = 0
        self._path_hits = 0
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ------------------------------------------------------------

    def _open(self, name: str, index: int | None = None) -> int:
        if index is None:
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, perf_counter(), parent, self.op))
        self._stack.append(index)
        return index

    def _close(self, index: int, raised: bool) -> None:
        self._stack.pop()
        span = self.spans[index]
        span.end = perf_counter()
        span.raised = span.raised or raised

    def add(self, key: str, amount) -> None:
        self.counts[key] += amount

    def maximum(self, key: str, value) -> None:
        self.counts[key] = max(self.counts[key], value)

    # -- wrappers -------------------------------------------------------------

    def span(self, name: str, after=None):
        """Wrapper factory: one span per call; ``after(args, kwargs, result)`` counts."""

        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                index = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    self._close(index, True)
                    raise
                self._close(index, False)
                if after is not None:
                    after(args, kwargs, result)
                return result

            return wrapper

        return factory

    def leaf(self, prefix: str):
        """Wrapper factory: no span, only ``<prefix>_s`` and ``<prefix>_calls``."""
        seconds, calls = prefix + "_s", prefix + "_calls"

        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.counts[seconds] += perf_counter() - start
                    self.counts[calls] += 1

            return wrapper

        return factory

    def steps(self, name: str, count_key: str):
        """Wrapper factory for a generator: one span, busy only inside its steps."""

        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                index = None
                while True:
                    index = self._open(name, index)
                    span = self.spans[index]
                    step_start = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        self._close(index, False)
                        span.busy = (span.busy or 0.0) + span.end - step_start
                        return
                    except BaseException:
                        self._close(index, True)
                        span.busy = (span.busy or 0.0) + span.end - step_start
                        raise
                    self._close(index, False)
                    span.busy = (span.busy or 0.0) + span.end - step_start
                    self.counts[count_key] += 1
                    yield item

            return wrapper

        return factory

    def lapack(self, fn):
        """numpy.linalg eigensolver called from a twistlab module: one span per call."""
        spanned = self.span("spectral.lapack")(fn)

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if not sys._getframe(1).f_globals.get("__name__", "").startswith("twistlab"):
                return fn(a, *args, **kwargs)
            shape = np.shape(a)
            self.counts["spectral.lapack_matrices"] += int(np.prod(shape[:-2], dtype=np.int64))
            return spanned(a, *args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------------

    def _patch_function(self, module, attr: str, factory) -> None:
        original = getattr(module, attr)
        wrapper = factory(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "twistlab" or name.startswith("twistlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((setattr, mod, key, original))

    def _patch_method(self, cls, attr: str, factory) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, property):
            wrapped = property(factory(original.fget))
        else:
            wrapped = factory(original)
        setattr(cls, attr, wrapped)
        self._undo.append((setattr, cls, attr, original))

    def install(self) -> None:
        rep, spec = representations, spectral
        add, maximum = self.add, self.maximum

        self._patch_function(cli, "main", self.span("cli.main"))
        self._patch_function(cli, "emit", self.span(
            "cli.emit", lambda a, k, r: add("cli.emit_bytes", _emitted_bytes(a, k))))

        self._patch_function(rep, "butterfly_rows",
                             self.steps("representations.butterfly_rows", "representations.rows"))
        self._patch_method(rep.BlochMap, "fiber_stack", self.span(
            "representations.fiber_stack",
            lambda a, k, r: add("representations.fibers", r.shape[0])))
        self._patch_method(rep.BlochMap, "__init__", self.span("representations.BlochMap"))
        self._patch_function(rep, "left_regular", self.span(
            "representations.left_regular",
            lambda a, k, r: maximum("representations.left_regular_dim_max", r.dim)))

        self._patch_function(spec, "eigh", self.span(
            "spectral.eigh", lambda a, k, r: maximum("spectral.eigh_dim_max", r.eigenvalues.size)))
        self._patch_function(spec, "eta_quadrature", self.span("spectral.eta_quadrature"))
        self._patch_function(spec, "eta_operator", self.span("spectral.eta_operator"))
        self._patch_function(spec, "twisted_betti", self.span("spectral.twisted_betti"))
        self._patch_function(spec, "spectral_flow", self.span(
            "spectral.spectral_flow", lambda a, k, r: add("spectral.flow_samples", r.samples)))
        self._patch_method(spec.MatrixPath, "eigenvalues", self._path_eigenvalues)
        for attr in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, attr)
            setattr(np.linalg, attr, self.lapack(original))
            self._undo.append((setattr, np.linalg, attr, original))

        self._patch_method(algebra.AlgebraElement, "convolve", self.span(
            "algebra.convolve",
            lambda a, k, r: add("algebra.convolve_pairs", len(a[0].coeffs) * len(a[1].coeffs))))
        self._patch_method(multipliers.Multiplier, "value", self.leaf("multipliers.value"))
        self._patch_function(multipliers, "verify_cocycle", self.span("multipliers.verify_cocycle"))
        self._patch_function(multipliers, "multipliers_equal",
                             self.span("multipliers.multipliers_equal"))
        self._patch_method(phases.Phase, "value", self.leaf("phases.value"))
        self._patch_method(groups.Group, "ball", self.span(
            "groups.ball", lambda a, k, r: add("groups.ball_elements", len(r))))

        for attr, value in list(vars(cohomology).items()):
            if (callable(value) and not attr.startswith("_")
                    and getattr(value, "__module__", "") == cohomology.__name__
                    and not isinstance(value, type)):
                self._patch_function(cohomology, attr, self.span(f"cohomology.{attr}"))
        for cls, attrs in ((cohomology.GroupCochain, ("differential", "check_invariance")),
                           (cohomology.CyclicCochain, ("evaluate", "boundary", "is_localized"))):
            for attr in attrs:
                self._patch_method(cls, attr, self.span(f"cohomology.{cls.__name__}.{attr}"))

        self._patch_function(mishchenko, "lott_pairing_circle",
                             self.span("mishchenko.lott_pairing_circle"))
        self._patch_method(mishchenko.Projection, "verify", self.span("mishchenko.Projection.verify"))

        for suite in SUITES:
            original = verify._SUITES[suite]
            verify._SUITES[suite] = self.span(f"verify.{suite}")(original)
            self._undo.append((verify._SUITES.__setitem__, suite, original))

    def uninstall(self) -> None:
        while self._undo:
            fn, *args = self._undo.pop()
            fn(*args)

    def _path_eigenvalues(self, fn):
        """MatrixPath.eigenvalues: a call is a cache hit when it made no LAPACK call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self.counts["spectral.lapack_matrices"]
            result = fn(*args, **kwargs)
            self._path_calls += 1
            self._path_hits += self.counts["spectral.lapack_matrices"] == before
            return result

        return wrapper

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """Every per-layer metric of the pass, keyed as in LAYER_METRICS."""
        spans = self.spans
        durations = [s.duration for s in spans]
        children = [0.0] * len(spans)
        for s, d in zip(spans, durations):
            if s.parent is not None:
                children[s.parent] += d

        def total(name):
            return sum(d for s, d in zip(spans, durations) if s.name == name)

        def self_time(name):
            return sum(d - c for s, d, c in zip(spans, durations, children) if s.name == name)

        def calls(name):
            return sum(1 for s in spans if s.name == name)

        def outermost(prefix):
            """Time covered by spans named ``prefix*``, nested ones counted once."""
            out = 0.0
            for s, d in zip(spans, durations):
                if not s.name.startswith(prefix):
                    continue
                parent = s.parent
                while parent is not None and not spans[parent].name.startswith(prefix):
                    parent = spans[parent].parent
                if parent is None:
                    out += d
            return out

        m = dict(self.counts)
        m.update({
            "cli.emit_s": total("cli.emit"),
            "cli.self_s": self_time("cli.main"),
            "representations.rows_s": total("representations.butterfly_rows"),
            "representations.fiber_stack_s": total("representations.fiber_stack"),
            "representations.blochmap_s": total("representations.BlochMap"),
            "representations.blochmap_calls": calls("representations.BlochMap"),
            "representations.left_regular_s": total("representations.left_regular"),
            "spectral.eigh_s": total("spectral.eigh"),
            "spectral.eigh_calls": calls("spectral.eigh"),
            "spectral.lapack_s": total("spectral.lapack"),
            "spectral.quadrature_self_s": self_time("spectral.eta_quadrature"),
            "spectral.eta_s": outermost("spectral.eta_operator"),
            "spectral.betti_s": total("spectral.twisted_betti"),
            "spectral.flow_s": total("spectral.spectral_flow"),
            "spectral.path_cache_hit_frac": (self._path_hits / self._path_calls
                                             if self._path_calls else 0.0),
            "algebra.convolve_s": outermost("algebra.convolve"),
            "algebra.convolve_calls": calls("algebra.convolve"),
            "multipliers.verify_cocycle_s": total("multipliers.verify_cocycle"),
            "multipliers.equal_s": total("multipliers.multipliers_equal"),
            "groups.ball_s": total("groups.ball"),
            "cohomology.busy_s": outermost("cohomology."),
            "mishchenko.pairing_s": total("mishchenko.lott_pairing_circle"),
            "mishchenko.verify_s": total("mishchenko.Projection.verify"),
        })
        m.update({f"verify.{suite}_s": total(f"verify.{suite}") for suite in SUITES})
        return {name: m[name] for name in LAYER_METRICS}

    def write(self, path) -> None:
        """Write the spans as JSON lines, parents referring to line numbers from 0."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                    "op": s.op, "raised": s.raised, "busy": s.busy,
                }) + "\n")


def _emitted_bytes(args, kwargs) -> int:
    """Size of the file ``cli.emit(payload, out_path, ...)`` wrote; 0 for stdout."""
    out_path = args[1] if len(args) > 1 else kwargs.get("out_path")
    return os.path.getsize(out_path) if out_path else 0
