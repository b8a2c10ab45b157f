"""In-process tracing of vulforge's layers, from outside the package.

``Tracer.install`` replaces each public function of the traced modules with
a wrapper, in every vulforge module namespace that holds it, so callers
that imported the name (``cli.fit_builtin``) see the wrapper as well as
callers that look it up on the module (``_kernels.csr_softmax_fit``).  A
wrapper records a span (name, start, end, parent span, stage) or, for
functions called once per row, only a call count.  Spans live in memory
and are written out when the run ends.

A span's self time is its duration minus the part of that interval its
child spans cover.  Spans opened on a worker thread with no open span of
their own take the main thread's innermost open span as parent, so the
members of ``bag --workers 2`` hang under ``ensembles.bagging_fit``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

#: layer name -> module; `_kernels` is reported as `kernels`
LAYERS = {
    "ingest": "vulforge.ingest",
    "codefeat": "vulforge.codefeat",
    "learners": "vulforge.learners",
    "kernels": "vulforge._kernels",
    "core": "vulforge.core",
    "ensembles": "vulforge.ensembles",
    "metamodels": "vulforge.metamodels",
    "metrics": "vulforge.metrics",
    "store": "vulforge.store",
}

#: called once per hashed n-gram: left unwrapped, their time stays in
#: codefeat.featurize's self time
SKIP = frozenset({"codefeat.fnv1a64", "codefeat.ngram_dimension"})

#: called once per row, per node or per vote: counted, not timed
COUNT_ONLY = frozenset({
    "core.validate_prob_vector", "core.argmax_label", "core.binary_label",
    "kernels.softmax", "kernels.split_scan", "learners.predict_builtin",
    "ensembles.soft_combine", "ensembles.bagging_combine",
    "ensembles.boost_combine", "ensembles.member_rows",
    "ensembles.adaboost_round_rows", "ensembles.gate_scores",
    "ensembles.dgs_predict", "ensembles.bagging_predict",
    "ensembles.adaboost_predict", "ensembles.stacking_predict",
    "metamodels.meta_predict", "metrics.f1_score",
})


def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _ngrams(tokens, config) -> int:
    orders = config.ngram_orders if config is not None else (1, 2)
    return sum(max(0, len(tokens) - o + 1) for o in orders)


def _dir_bytes(path) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total


def _dense_gate_bytes(args, kwargs) -> int:
    """Size of the N_val x (D + M*K) float64 matrix a dense gate builds,
    computed from the shapes dgs_fit receives."""
    cfg = _arg(args, kwargs, 4, "cfg")
    if cfg is None or cfg.gate_kind == "lr":
        return 0
    preds = _arg(args, kwargs, 0, "base_preds_val")
    n = len(_arg(args, kwargs, 1, "val_ids"))
    width = _arg(args, kwargs, 3, "features").dims + len(preds) * preds[0].k
    return n * width * 8


#: span name -> counters derived from (args, kwargs, result)
COUNTERS = {
    "codefeat.tokenize": lambda a, kw, r: {"codefeat.tokens": len(r)},
    "codefeat.featurize": lambda a, kw, r: {
        "codefeat.ngrams": _ngrams(_arg(a, kw, 0, "tokens"),
                                   _arg(a, kw, 1, "config"))},
    "kernels.csr_softmax_fit": lambda a, kw, r: {
        "kernels.csr_softmax_fit.nnz_epochs":
            len(_arg(a, kw, 2, "data")) * _arg(a, kw, 7, "order").shape[0]},
    "learners.ingest_predictions": lambda a, kw, r: {
        "learners.pred_rows_read": len(r.ids)},
    "learners.ingest_round_predictions": lambda a, kw, r: {
        "learners.pred_rows_read": len(r.ids)},
    "learners.write_predictions": lambda a, kw, r: {
        "learners.pred_rows_written": len(_arg(a, kw, 1, "p").ids)},
    "ingest.load_dataset": lambda a, kw, r: {"ingest.load_dataset.rows": len(r)},
    "ensembles.bagging_predict_set": lambda a, kw, r: {
        "ensembles.combined_rows": len(r.ids)},
    "ensembles.adaboost_predict_set": lambda a, kw, r: {
        "ensembles.combined_rows": len(r.ids)},
    "ensembles.dgs_predict_set": lambda a, kw, r: {
        "ensembles.combined_rows": len(r.ids)},
    "ensembles.dgs_fit": lambda a, kw, r: {
        "ensembles.dense_gate_bytes": _dense_gate_bytes(a, kw)},
    "store.save_ensemble": lambda a, kw, r: {
        "store.bytes_written": _dir_bytes(_arg(a, kw, 0, "out_dir"))},
}


def _span_name(name: str, args, kwargs) -> str:
    if name == "metamodels.meta_fit":
        return f"{name}.{_arg(args, kwargs, 0, 'kind')}"
    return name


class Tracer:
    """Spans and counters of one traced pass; see the module docstring."""

    def __init__(self):
        #: [name, start, end, parent index or -1, stage index or -1]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.stage_names: list[str] = []
        self._stage = -1
        self._lock = threading.Lock()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else -1
        rec = [name, 0.0, 0.0, parent, self._stage]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        rec[1] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def add(self, counts: dict) -> None:
        with self._lock:
            self.counts.update(counts)

    @contextmanager
    def stage(self, name: str):
        """Root span of one CLI stage; everything under it carries its id."""
        self._stage = len(self.stage_names)
        self.stage_names.append(name)
        idx = self.open("stage")
        try:
            yield
        finally:
            self.close(idx)
            self._stage = -1

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        calls_key = f"{name}.calls"
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                with self._lock:
                    self.counts[calls_key] += 1
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            idx = self.open(_span_name(name, args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            extra = {calls_key: 1}
            if counter is not None:
                extra.update(counter(args, kwargs, result))
            self.add(extra)
            return result
        return spanned

    def install(self) -> None:
        """Wrap every public function of the traced layers, wherever a
        vulforge module holds a reference to it."""
        wrappers: dict[int, tuple[object, object]] = {}
        for layer, modname in LAYERS.items():
            mod = importlib.import_module(modname)
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != modname or name in SKIP
                        or id(fn) in wrappers):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "vulforge" and not modname.startswith("vulforge."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    # -- results ----------------------------------------------------------

    def self_times(self, within_layer: bool = False) -> dict[str, float]:
        """Summed self time per span name.

        With ``within_layer``, only child spans of other layers count as
        children, so calls a function makes into its own layer stay in its
        self time; spans then overlap and must not be summed per layer.
        """
        kids: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                kids[s[3]].append(i)
        out: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            if within_layer:
                layer = span_layer(name)
                pending, boundary = list(kids.get(i, ())), []
                while pending:
                    j = pending.pop()
                    if span_layer(self.spans[j][0]) == layer:
                        pending += kids.get(j, ())
                    else:
                        boundary.append(j)
            else:
                boundary = kids.get(i, ())
            covered = _covered([(self.spans[j][1], self.spans[j][2])
                                for j in boundary], t0, t1)
            out[name] += (t1 - t0) - covered
        return dict(out)

    def layer_self_times(self) -> dict[str, float]:
        """Self time per layer; each traced instant is counted once."""
        totals: dict[str, float] = defaultdict(float)
        for name, v in self.self_times().items():
            totals[span_layer(name)] += v
        return dict(totals)

    def write(self, path: Path) -> None:
        """Spans as jsonl, one object per span, times relative to the first."""
        t_base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, stage) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": t0 - t_base, "end": t1 - t_base,
                    "parent": parent, "stage": self.stage_names[stage]
                    if stage >= 0 else None}) + "\n")


def span_layer(name: str) -> str:
    """Layer of a span name; the stage roots belong to `cli`."""
    return "cli" if name == "stage" else name.split(".", 1)[0]


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
