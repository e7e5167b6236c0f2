"""In-memory span recorder for the benchmark's traced runs.

``Tracer`` is a context manager.  On entry it replaces the public functions
of the specloc layer modules, and the numpy/scipy LAPACK entry points they
call, by recording wrappers at module-attribute level; on exit it puts the
originals back.  Every call of a wrapped function becomes a span with name,
start, end, parent span and op id.  Spans stay in memory until ``dump``.

A span's self time is its duration minus the time covered by its child
spans.  Calls and self time are aggregated per span name as spans close, and
child calls per (parent name, child name) pair, so that ratios such as
solves per Riesz projection are counted where the work happens.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import functools
import time

import numpy as np
import scipy.linalg

from specloc import (blockop, cli, contours, enclosure, instances, numerics, operators,
                     projections, rieszbasis, subordination)

#: (owner, attribute, span name) of every wrapped function
TARGETS = (
    (subordination, "subordination_bound", "subordination.bound"),
    (enclosure, "certified_r0", "enclosure.certified_r0"),
    (enclosure, "verify_spectrum_enclosure", "enclosure.verify"),
    (instances, "enclosure_instance", "instances.generate"),
    (instances, "diagonalizable_instance", "instances.generate"),
    (operators, "assemble", "operators.assemble"),
    (numerics, "eig", "numerics.eig"),
    (numerics, "opnorm", "numerics.opnorm"),
    (contours, "min_resolvent_margin", "contours.margin"),
    (contours.Contour, "refined", "contours.refine"),
    (projections, "riesz_projection", "projections.riesz"),
    (projections, "family_from_gaps", "projections.family"),
    (projections, "make_family", "projections.make_family"),
    (projections, "spectral_projector_oracle", "projections.oracle"),
    (projections, "projection_sum_bound", "projections.sum_bound"),
    (rieszbasis, "sign_pattern_constant", "rieszbasis.sign_pattern"),
    (rieszbasis, "verify_projection_estimate", "rieszbasis.estimate"),
    (rieszbasis, "range_family", "rieszbasis.range_family"),
    (rieszbasis, "riesz_constant", "rieszbasis.riesz_constant"),
    (blockop, "build_hamiltonian", "blockop.build"),
    (blockop, "verify_hamiltonian", "blockop.verify"),
    (cli, "main", "cli"),
    (np.linalg, "solve", "lapack.solve"),
    (np.linalg, "svd", "lapack.svd"),
    (scipy.linalg, "eig", "lapack.eig"),
)

# span record fields
_NAME, _START, _END, _PARENT, _OP = range(5)


class Tracer:
    """Records spans around the wrapped functions while the context is open."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: collections.Counter = collections.Counter()
        self.self_s: collections.Counter = collections.Counter()
        #: (parent span name, child span name) -> child calls
        self.child_calls: collections.Counter = collections.Counter()
        #: nonzero-weight nodes of the contours Riesz projections accepted
        self.accepted_nodes = 0
        #: largest ||P^2 - P|| over the Riesz projections returned
        self.idempotency_max = 0.0
        self._stack: list[int] = []
        self._covered: list[float] = []
        self._op = -1
        self._paused = False
        self._saved: list[tuple] = []
        self._refined: tuple[int, object] | None = None

    # -- patching -----------------------------------------------------------

    def __enter__(self):
        after = {"contours.refine": self._after_refine,
                 "projections.riesz": self._after_riesz}
        for owner, attr, name in TARGETS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name, after.get(name)))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, fn, name, after):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                with tracer._untimed():
                    after(idx, args, result)
            return result

        return traced

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, self._op])
        self._stack.append(idx)
        self._covered.append(0.0)
        self.spans[idx][_START] = time.perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span[_END] = end
        self._stack.pop()
        covered = self._covered.pop()
        duration = end - span[_START]
        name = span[_NAME]
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        if self._covered:
            self._covered[-1] += duration
            self.child_calls[(self.spans[span[_PARENT]][_NAME], name)] += 1

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one benchmark op; every span inside carries op_id."""
        self._op = op_id
        idx = self._open("op")
        try:
            yield
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own output checks without recording them."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    @contextlib.contextmanager
    def _untimed(self):
        """Bookkeeping the tracer does itself: its time counts as covered,
        so it lands in no span's self time."""
        start = time.perf_counter()
        with self.paused():
            yield
        if self._covered:
            self._covered[-1] += time.perf_counter() - start

    # -- hooks --------------------------------------------------------------

    def _after_refine(self, idx, args, result):
        self._refined = (self.spans[idx][_PARENT], result)

    def _after_riesz(self, idx, args, result):
        contour = args[1]
        if self._refined is not None and self._refined[0] == idx:
            contour = self._refined[1]
        self._refined = None
        self.accepted_nodes += int(np.count_nonzero(contour.weights))
        self.idempotency_max = max(self.idempotency_max,
                                   numerics.opnorm(result @ result - result))

    # -- output -------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as a CSV row: name, start, end, parent, op."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("name", "start", "end", "parent", "op"))
            writer.writerows(self.spans)
