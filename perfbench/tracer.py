"""Outside-in span tracer for the fractal_remez benchmark.

The tracer edits nothing in the program.  It replaces each traced
function by a wrapper at every import site (the defining module and every
``fractal_remez`` module that imported the name, e.g.
``extension.local_best_approx``), and replaces three class methods
(``Polynomial.eval_many``, ``Polynomial.compose_affine``,
``Cube.contains``) on their classes, for the body of an ``installed``
block only; leaving the block puts every original back.

A span is one call of a traced function: name, start, end, parent span
and operation id.  Spans stay in memory as flat lists and are written
out once, at the end of a run.  A span's self time is its duration minus
the durations of its children; calls on one thread nest, so children
never overlap and the sum of all self times equals the summed duration of
the root spans.

Counters that need extra work (input digests, probe distances) run inside
a ``trace.counters`` span after the traced call has returned, so their
cost is kept out of every layer's self time and shows only in
``trace.overhead_frac``.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import os
import sys
import time
from collections import Counter

import numpy as np
from scipy.spatial import cKDTree

OP_SPAN = "op"
COUNTER_SPAN = "trace.counters"


class Tracer:
    """Span recorder with named counters; disabled until ``enabled`` is set."""

    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.counters: Counter = Counter()
        self.context: dict = {}
        self.memo: dict = {}
        self.current_op = -1
        self._stack: list[int] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation, with tracing switched on."""
        self.current_op = op_id
        self.enabled = True
        try:
            with self.span(OP_SPAN) as idx:
                yield idx
        finally:
            self.enabled = False
            self.current_op = -1

    def reset(self) -> None:
        """Drop spans, counters and memos (the name table is kept)."""
        for lst in (self.name_id, self.start, self.end, self.parent, self.op):
            lst.clear()
        self.counters.clear()
        self.context.clear()
        self.memo.clear()

    # -- wrapping --------------------------------------------------------

    def wrap(self, fn, name, observe=None, scope=None):
        """Wrapper recording a span per call of ``fn``.

        ``name`` is a string or a callable (args, kwargs) -> string.
        ``observe(tracer, args, kwargs, result)`` updates counters after the
        call, inside a ``trace.counters`` span.  ``scope(args, kwargs)``
        returns context entries visible to nested wrappers during the call.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            saved = None
            if scope is not None:
                saved = dict(tracer.context)
                tracer.context.update(scope(args, kwargs))
            idx = tracer._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if saved is not None:
                    tracer.context = saved
            if observe is not None:
                with tracer.span(COUNTER_SPAN):
                    observe(tracer, args, kwargs, result)
            return result

        return traced

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict:
        """Spans as flat numpy arrays, with self times."""
        start = np.array(self.start)
        end = np.array(self.end)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name_id": np.array(self.name_id, dtype=np.int32),
                "start": start, "end": end, "parent": parent,
                "op": np.array(self.op, dtype=np.int32),
                "duration": dur, "self": dur - child}

    def summary(self) -> dict:
        """Per span name: calls, total (inclusive) seconds, self seconds."""
        a = self.arrays()
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name_id"] == nid
            if np.any(sel):
                out[name] = {"calls": int(np.sum(sel)),
                             "total_s": float(np.sum(a["duration"][sel])),
                             "self_s": float(np.sum(a["self"][sel]))}
        return out


# -- counters measured from outside --------------------------------------


class Digests:
    """blake2b digests of arrays, memoised by identity for one pass.

    The memo holds a reference to each array so that its id cannot be
    reused while the memo lives.
    """

    def __init__(self):
        self._memo: dict = {}

    def __call__(self, arr) -> bytes:
        key = id(arr)
        hit = self._memo.get(key)
        if hit is None:
            a = np.ascontiguousarray(arr)
            h = hashlib.blake2b(a.tobytes(), digest_size=16)
            h.update(str((a.dtype, a.shape)).encode())
            hit = self._memo[key] = (arr, h.digest())
        return hit[1]


def _q_label(q) -> str:
    if q in (np.inf, float("inf"), "inf"):
        return "qinf"
    return f"q{q:g}"


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _observe_local_fit(tracer, args, kwargs, result):
    f_values = _arg(args, kwargs, 0, "f_values")
    X = _arg(args, kwargs, 1, "X")
    Q = _arg(args, kwargs, 2, "Q")
    k = _arg(args, kwargs, 3, "k")
    q = _arg(args, kwargs, 4, "q")
    digest = tracer.memo.setdefault("digests", Digests())
    seen = tracer.memo.setdefault("fits_seen", set())
    key = (digest(f_values), digest(X.points), digest(X.masses),
           Q.center, Q.radius, k, _q_label(q))
    if key in seen:
        tracer.counters["campanato.local_best_approx.repeats"] += 1
    else:
        seen.add(key)
    if result.rank_deficient:
        tracer.counters["campanato.local_best_approx.rank_deficient"] += 1


def _observe_tau(tracer, args, kwargs, result):
    space = _arg(args, kwargs, 0, "space")
    phi = _arg(args, kwargs, 1, "phi")
    queries = np.atleast_2d(np.asarray(_arg(args, kwargs, 2, "queries"),
                                       dtype=float))
    keep = space.masses > 0
    atoms = space.points[keep]
    in_reach = 0
    if len(atoms) and space.metric is None:
        reach = float(phi.inverse(float(np.sum(space.masses[keep]))))
        dist, _ = cKDTree(atoms).query(queries, k=1)
        in_reach = int(np.sum(dist <= reach))
    suffixes = [""]
    if "eta" in tracer.context:
        suffixes.append(f".eta_{tracer.context['eta']:g}")
    for sfx in suffixes:
        tracer.counters["covering.tau_many.probes" + sfx] += len(queries)
        tracer.counters["covering.tau_many.in_reach" + sfx] += in_reach


def _observe_ball_measure(tracer, args, kwargs, result):
    from fractal_remez import fractals

    X = _arg(args, kwargs, 0, "X")
    if X.size >= fractals.BUCKET_THRESHOLD:
        tracer.counters["fractals.ball_measure.large_cloud"] += 1


def _observe_whitney(tracer, args, kwargs, result):
    tracer.counters["extension.holes"] += len(result.holes)


def _observe_write(tracer, args, kwargs, result):
    tracer.counters["reporting.bytes_written"] += os.path.getsize(args[0])


# (module, attribute, span name, observe, scope); span names follow the
# per-layer metric names in BENCHMARK.json.
FUNCTIONS = [
    ("fractals", "ball_measure", "fractals.ball_measure",
     _observe_ball_measure, None),
    ("fractals", "estimate_regularity", "fractals.estimate_regularity",
     None, None),
    ("remez", "sup_norm", "remez.sup_norm", None, None),
    ("remez", "empirical_remez", "remez.empirical_remez", None, None),
    ("remez", "markov_check", "remez.markov_check", None, None),
    ("covering", "tau_many", "covering.tau_many", _observe_tau, None),
    ("covering", "greedy_ball_cover", "covering.greedy_ball_cover",
     None, None),
    ("covering", "cartan_exclusion_disks", "covering.cartan_exclusion_disks",
     None, lambda a, kw: {"eta": _arg(a, kw, 2, "eta")}),
    ("covering", "potential_bound_verify", "covering.potential_bound_verify",
     None, None),
    ("campanato", "local_best_approx",
     lambda a, kw: "campanato.local_best_approx."
     + _q_label(_arg(a, kw, 4, "q")),
     _observe_local_fit, None),
    ("campanato", "campanato_seminorm", "campanato.campanato_seminorm",
     None, None),
    ("campanato", "build_cube_family", "campanato.build_cube_family",
     None, None),
    ("extension", "build_chain", "extension.build_chain", None, None),
    ("extension", "trace_tilde", "extension.trace_tilde", None, None),
    ("extension", "chain_seminorm", "extension.chain_seminorm", None, None),
    ("extension", "whitney_extend", "extension.whitney_extend",
     _observe_whitney, None),
    ("extension", "verify_extension", "extension.verify_extension",
     None, None),
    ("cli", "main", "cli.run", None, None),
    ("reporting", "write_json_report", "reporting.write", _observe_write,
     None),
    ("reporting", "write_csv_summary", "reporting.write", _observe_write,
     None),
    ("reporting", "write_plot_data", "reporting.write", _observe_write, None),
]

# (module, class, method, span name)
METHODS = [
    ("polynomials", "Polynomial", "eval_many", "polynomials.eval_many"),
    ("polynomials", "Polynomial", "compose_affine",
     "polynomials.compose_affine"),
    ("geometry", "Cube", "contains", "geometry.cube_contains"),
]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced name at every import site for the ``with`` body."""
    pkg = "fractal_remez"
    for mod in ("polynomials", "geometry", "fractals", "remez", "covering",
                "campanato", "extension", "reporting", "cli"):
        importlib.import_module(f"{pkg}.{mod}")
    modules = [m for n, m in sorted(sys.modules.items())
               if (n == pkg or n.startswith(pkg + ".")) and m is not None]
    undo = []
    try:
        for mod_name, attr, name, observe, scope in FUNCTIONS:
            original = getattr(sys.modules[f"{pkg}.{mod_name}"], attr)
            wrapper = tracer.wrap(original, name, observe, scope)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapper)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"{pkg}.{mod_name}"], cls_name)
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(original, name))
        poly_cls = sys.modules[f"{pkg}.polynomials"].Polynomial
        init = poly_cls.__dict__["__init__"]

        def counted_init(self, *args, **kwargs):
            if tracer.enabled:
                tracer.counters["polynomials.constructions"] += 1
            init(self, *args, **kwargs)

        undo.append((poly_cls, "__init__", init))
        poly_cls.__init__ = counted_init
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
