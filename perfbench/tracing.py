"""Span tracing for the benchmark's traced runs (stdlib only).

Wrappers are installed from the benchmark's own files around the public
entry points of each ``repro`` layer; the program itself is unmodified.
A function is wrapped everywhere a caller resolves it: every ``repro.*``
module attribute bound to the original function object is replaced
(``repro.core.framework`` imports ``parse``, ``build_tree``,
``select_targets``, ... into its own namespace, so patching only the
defining module would miss those calls).  Methods are wrapped on their
class.

A span is ``[name, start, end, parent, request_id, extra]``: ``parent``
is the enclosing span on the same thread (``None`` at the top),
``request_id`` joins spans of one document or request across threads,
and ``extra`` carries a per-call measurement (bytes parsed, list
length, the input label).  Spans are kept in memory; :meth:`write`
dumps them when the run ends.  A span's *self time* is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict, deque

# (span name, module, owner, attribute, extra) — ``owner`` is None for a
# module-level function, else a class name in ``module``.  ``extra``
# names the per-call measurement kept on the span.
TARGETS = (
    ("xmltree.parse", "repro.xmltree.parser", None, "parse", "arg_len"),
    ("xmltree.build_tree", "repro.xmltree.dom", None, "build_tree", None),
    ("linguistics.label", "repro.linguistics.pipeline",
     "LinguisticPipeline", "process_label", "arg"),
    ("linguistics.label", "repro.linguistics.pipeline",
     "LinguisticPipeline", "process_value", "arg"),
    ("core.select", "repro.core.ambiguity", None, "select_targets",
     "result_len"),
    ("core.ambiguity", "repro.core.ambiguity", None, "ambiguity_degree",
     None),
    ("core.candidates", "repro.core.candidates", None, "candidate_senses",
     "result_len"),
    ("core.sphere", "repro.core.sphere", None, "build_sphere",
     "result_len"),
    ("core.context_vector", "repro.core.context_vector", None,
     "context_vector", None),
    ("core.concept_inventory", "repro.core.concept_based",
     "ConceptBasedScorer", "context_inventory", None),
    ("core.upper_bound", "repro.core.concept_based", "ConceptBasedScorer",
     "upper_bound_one", None),
    ("core.concept_score", "repro.core.concept_based",
     "ConceptBasedScorer", "score_one", None),
    ("core.context_score", "repro.core.context_based",
     "ContextBasedScorer", "score_all", None),
    ("core.document", "repro.core.framework", "XSDF",
     "disambiguate_document", None),
    ("similarity.pair", "repro.similarity.combined", "CombinedSimilarity",
     "__call__", None),
    ("similarity.bound", "repro.similarity.combined", "CombinedSimilarity",
     "upper_bound", None),
    ("runtime.memo.signature", "repro.runtime.memo", "SphereMemo",
     "signature", None),
    ("runtime.memo.get", "repro.runtime.memo", "SphereMemo", "get", None),
    ("runtime.memo.put", "repro.runtime.memo", "SphereMemo", "put", None),
    ("runtime.executor", "repro.runtime.executor", "BatchExecutor", "run",
     None),
    ("runtime.serialize", "repro.runtime.executor", "BatchRecord",
     "to_json_line", None),
    ("runtime.serialize", "repro.core.results", "DisambiguationResult",
     "to_dict", None),
    ("server.score", "repro.server.app", None, "run_one_document", None),
    ("server.handle", "repro.server.app", "ServerApp", "handle", None),
)

_EXTRA = {
    None: None,
    "arg_len": lambda args, result: len(args[0]),
    "arg": lambda args, result: args[1],
    "result_len": lambda args, result: len(result),
}


class Tracer:
    """Installs span wrappers, records spans, and aggregates them."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        # Request id pairing between the server's event-loop thread
        # (handle) and its scoring thread (run_one_document), by name.
        self._pending: dict[str, deque] = defaultdict(deque)
        self.request_id: str | None = None

    # -- recording -----------------------------------------------------------

    def _wrap_sync(self, name: str, fn, extra):
        spans = self.spans
        local = self._local
        clock = time.perf_counter
        measure = _EXTRA[extra]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            rid = parent[4] if parent is not None else tracer.request_id
            span = [name, 0.0, 0.0, parent, rid, None]
            spans.append(span)
            stack.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                span[5] = measure(args, result)
            return result

        return wrapper

    def _wrap_score(self, name: str, fn):
        """``run_one_document(session, name, xml)`` on the scoring thread."""
        inner = self._wrap_sync(name, fn, None)
        pending = self._pending
        local = self._local

        @functools.wraps(fn)
        def wrapper(session, doc_name, xml):
            queue = pending.get(doc_name)
            rid = queue.popleft() if queue else doc_name
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            # A synthetic root carries the request id to nested spans.
            root = [None, 0.0, 0.0, None, rid, None]
            stack.append(root)
            try:
                return inner(session, doc_name, xml)
            finally:
                stack.pop()

        return wrapper

    def _wrap_handle(self, name: str, fn):
        """``ServerApp.handle`` — a coroutine on the event-loop thread."""
        spans = self.spans
        pending = self._pending
        clock = time.perf_counter

        @functools.wraps(fn)
        async def wrapper(app, request, *args, **kwargs):
            rid = request.header("x-request-id") or None
            doc_name = request.header("x-bench-name")
            if doc_name:
                pending[doc_name].append(rid)
            span = [name, clock(), 0.0, None, rid, doc_name]
            spans.append(span)
            try:
                return await fn(app, request, *args, **kwargs)
            finally:
                span[2] = clock()

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever ``repro`` modules resolve it."""
        for name, module_name, owner, attr, extra in TARGETS:
            module = importlib.import_module(module_name)
            if owner is not None:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                if inspect.iscoroutinefunction(original):
                    wrapped = self._wrap_handle(name, original)
                else:
                    wrapped = self._wrap_sync(name, original, extra)
                self._patches.append((cls, attr, original))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(module, attr)
            if name == "server.score":
                wrapped = self._wrap_score(name, original)
            else:
                wrapped = self._wrap_sync(name, original, extra)
            for mod_name, mod in list(sys.modules.items()):
                if not (mod_name == "repro" or mod_name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def aggregate(self, keep=None) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, extras list.

        ``keep(span)`` selects the spans counted (all by default).
        """
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            parent = span[3]
            if parent is not None and parent[0] is not None:
                child_time[id(parent)] += span[2] - span[1]
        out: dict[str, dict] = {}
        for span in self.spans:
            if keep is not None and not keep(span):
                continue
            entry = out.get(span[0])
            if entry is None:
                entry = out[span[0]] = {
                    "calls": 0, "total_s": 0.0, "self_s": 0.0, "extra": [],
                }
            duration = span[2] - span[1]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time.get(id(span), 0.0)
            if span[5] is not None:
                entry["extra"].append(span[5])
        return out

    def write(self, path) -> int:
        """Dump the spans as gzipped TSV; returns the span count.

        Columns: id, parent id (-1 at the top), name, start and end in
        microseconds from the first span, request id.
        """
        ids = {id(span): i for i, span in enumerate(self.spans)}
        base = min((s[1] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_us\tend_us\trequest\n")
            for i, span in enumerate(self.spans):
                parent = span[3]
                pid = ids.get(id(parent), -1) if parent is not None else -1
                out.write(
                    f"{i}\t{pid}\t{span[0]}\t"
                    f"{(span[1] - base) * 1e6:.1f}\t"
                    f"{(span[2] - base) * 1e6:.1f}\t{span[4]}\n"
                )
        return len(self.spans)
