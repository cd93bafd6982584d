"""Spans around the calls the benchmark makes into charwave's layers.

A span is ``[name, start, end, parent, run_id]``: ``parent`` is the index of
the enclosing span in the same list, or -1 for a root.  Spans stay in memory
and are written out once, at the end of a run.  A span's name is
``<layer>.<call>``; the layers are charwave's modules.

Functions are wrapped where their caller looks them up (``charwave.cli.solve``
as well as ``charwave.assembly.solve``), so calls made from inside the package
are seen without changing it.  Counts come from public results: Picard
reports, array shapes and the written CSV.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LAYERS = ("expr", "geometry", "cauchy", "goursat", "assembly", "verify", "cli")

# spans whose tracemalloc peak is reported when allocation tracing is on
ALLOC_SPANS = {
    "cauchy.side1": "cauchy.side1.peak_alloc_mb",
    "cauchy.side2": "cauchy.side2.peak_alloc_mb",
    "goursat.wedge": "goursat.wedge.peak_alloc_mb",
    "assembly.sample_user_grid": "assembly.sample.peak_alloc_mb",
    "cli.write_csv": "cli.write_csv.peak_alloc_mb",
}

MIB = float(1 << 20)


class Tracer:
    """Spans and counts of one process, grouped by ``run_id``.

    With ``track_alloc`` on (and tracemalloc started) the spans named in
    ALLOC_SPANS also record their allocation peak, nested spans included.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.run_id = -1
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.peaks: dict[str, float] = {}
        self.track_alloc = False
        self._stack: list[int] = []
        self._alloc_stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        self.counts[self.run_id][name + ".calls"] += 1
        if self.track_alloc and name in ALLOC_SPANS:
            cur, peak = tracemalloc.get_traced_memory()
            for frame in self._alloc_stack:
                frame[1] = max(frame[1], peak)
            tracemalloc.reset_peak()
            self._alloc_stack.append([cur, cur])
        self.spans.append([name, 0.0, 0.0, parent, self.run_id])
        self.spans[idx][1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        name = span[0]
        if self.track_alloc and name in ALLOC_SPANS:
            _, peak = tracemalloc.get_traced_memory()
            start, high = self._alloc_stack.pop()
            used = (max(high, peak) - start) / MIB
            key = ALLOC_SPANS[name]
            self.peaks[key] = max(self.peaks.get(key, 0.0), used)

    def count(self, key: str, value: float) -> None:
        self.counts[self.run_id][key] += value

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name, on_result=None):
        """``fn`` inside a span; ``name`` is a string or a function of the
        call's arguments, ``on_result(tracer, args, kwargs, result)`` counts."""

        def traced(*args, **kwargs):
            idx = self.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr: str, name, on_result=None) -> None:
        orig = getattr(module, attr)
        self._restore.append((module, attr, orig))
        setattr(module, attr, self.wrap(orig, name, on_result))

    def install(self) -> None:
        """Wrap charwave's public functions at every place they are looked up."""
        import charwave
        from charwave import assembly, cauchy, cli, expr, verify

        def side_name(args, kwargs):
            side = args[1] if len(args) > 1 else kwargs["side"]
            return f"cauchy.side{side}"

        self.patch(expr, "evaluate", "expr.evaluate", _count_elems)
        self.patch(cauchy, "estimate_lipschitz", "cauchy.estimate_lipschitz")
        for mod in (assembly, verify):
            self.patch(mod, "classify_point", "geometry.classify_point")
            self.patch(mod, "goursat_traces", "goursat.traces")
        self.patch(assembly, "build_grid", "cauchy.build_grid")
        self.patch(assembly, "solve_cauchy_region", side_name, _count_side)
        self.patch(assembly, "solve_goursat_region", "goursat.wedge", _count_wedge)
        for mod in (charwave, assembly, cli):
            self.patch(mod, "solve", "assembly.solve")
        for mod in (charwave, cli):
            self.patch(mod, "check_definition1", "verify.check_definition1")
        self.patch(verify, "evaluate", "assembly.evaluate")
        self.patch(verify, "linear_oracle", "verify.linear_oracle")
        self.patch(cli, "convergence_study", "verify.convergence_study")
        self.patch(cli, "load_config", "cli.load_config")
        self.patch(cli, "sample_user_grid", "assembly.sample_user_grid")
        self.patch(cli, "write_csv", "cli.write_csv", _count_csv)
        self.patch(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._restore:
            module, attr, orig = self._restore.pop()
            setattr(module, attr, orig)


def _count_elems(tracer, args, kwargs, result):
    tracer.count("expr.evaluated_elems", np.size(result))


def _sector_nodes(shape) -> int:
    """Nodes of a side array inside its sector: [i, ncols-1-i] at level i."""
    rows, ncols = shape
    i = np.arange(rows)
    return int(np.maximum(ncols - 2 * i, 0).sum())


def _arrays_bytes(field) -> int:
    return field.u.nbytes + field.p.nbytes + field.q.nbytes


def _count_side(tracer, args, kwargs, field):
    tracer.count("cauchy.sweeps", sum(field.report.iterations))
    tracer.count("cauchy.strips", len(field.report.strips))
    tracer.count("cauchy.live_nodes", _sector_nodes(field.u.shape))
    tracer.count("cauchy.alloc_nodes", field.u.size)
    tracer.count("cauchy.array_bytes", _arrays_bytes(field))


def _count_wedge(tracer, args, kwargs, field):
    n = field.u.shape[0]  # nodes (s, r) with s + r <= n - 1 are live
    tracer.count("goursat.sweeps", sum(field.report.iterations))
    tracer.count("goursat.live_nodes", n * (n + 1) // 2)
    tracer.count("goursat.alloc_nodes", field.u.size)
    tracer.count("goursat.array_bytes", _arrays_bytes(field))


def _count_csv(tracer, args, kwargs, result):
    sol = args[0]
    path = args[1] if len(args) > 1 else kwargs["path"]
    g = sol.grid
    tracer.count("cli.csv_bytes", os.path.getsize(path))
    tracer.count("cli.csv_rows", (g.nt + 1) * (g.n_left + g.n_right + 1))


# --------------------------------------------------------------------------
# Span arithmetic


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Overlapping children are merged before subtracting, so the result is
    the time no child span accounts for.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, run in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent, run) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if hi is None or c_start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_start, c_end
            else:
                hi = max(hi, c_end)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


def layer_self_times(spans, root: str = "run") -> dict[int, dict[str, float]]:
    """Per run id: self time of each layer, plus ``untimed`` (the self time
    of the ``root`` spans) and ``total`` (their duration).

    Only trees under a ``root`` span count.  Within one run the layers and
    ``untimed`` add up to ``total``.
    """
    selfs = self_times(spans)
    root_of: list[int] = []
    for idx, span in enumerate(spans):
        parent = span[3]
        root_of.append(idx if parent < 0 else root_of[parent])
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for idx, (name, start, end, parent, run) in enumerate(spans):
        if spans[root_of[idx]][0] != root:
            continue
        if parent < 0:
            out[run]["untimed"] += selfs[idx]
            out[run]["total"] += end - start
        else:
            out[run][name.split(".", 1)[0]] += selfs[idx]
    return out


def inclusive_times(spans) -> dict[int, dict[str, float]]:
    """Per run id: summed duration of the spans of each name."""
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for name, start, end, parent, run in spans:
        out[run][name] += end - start
    return out
