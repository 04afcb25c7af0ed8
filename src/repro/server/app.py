"""The disambiguation service application: routing, sessions, streaming.

:class:`ServerApp` is the long-lived core the daemon keeps warm.  At
startup it loads the semantic network once, builds one shared
:class:`~repro.runtime.pack.PackedIndex`, and wraps the default
configuration in a resident :class:`~repro.runtime.executor
.BatchExecutor` *session* — which is exactly the serial batch path, so
the pair/sense/document LRUs, the :class:`~repro.runtime.memo
.SphereMemo`, and the metrics registry all survive across requests
instead of dying with a process.  A request's NDJSON record line is
therefore **byte-identical** to the ``repro batch`` JSONL line for the
same (name, document, config) — the test battery pins this under both
cold and warm caches.

Per-request ``config`` overrides get their own bounded session pool
keyed by :func:`~repro.runtime.memo.config_fingerprint`; every session
shares the one packed index (no rebuild, ever) but owns its caches,
because cache keys are only sound within one frozen configuration.

Scoring is CPU-bound and runs on a single dedicated worker thread: the
event loop stays free to accept connections, answer ``/healthz`` and
``/metrics``, and enforce limits while a document scores, and the
single thread serializes cache access exactly like the serial batch
path (concurrent clients are deterministic by construction).  Like the
PR-5 serial path, a request timeout cannot kill the scoring thread —
the client gets its ``stage="timeout"`` envelope immediately and the
straggler's work is discarded on completion.

Endpoints
---------
``POST /v1/disambiguate``
    NDJSON stream: one ``{"annotation": ...}`` line per resolved node,
    then the batch-identical record line, then the ``DocOutcome``
    envelope line.
``GET /healthz``
    Readiness + index fingerprint + uptime.
``GET /metrics``
    The full :class:`~repro.runtime.metrics.MetricsRegistry` snapshot,
    same schema as ``repro batch --metrics-json``.
"""

from __future__ import annotations

import asyncio
import math
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .. import __version__
from ..core.config import XSDFConfig
from ..runtime.executor import (
    DEFAULT_CACHE_SIZE,
    BatchExecutor,
    BatchRecord,
)
from ..runtime.memo import config_fingerprint
from ..runtime.metrics import MetricsRegistry
from ..runtime.pack import PackedIndex
from ..runtime.store import NetworkRegistry
from ..runtime.resilience import STATUS_FAILED, DocOutcome
from ..semnet.network import SemanticNetwork
from .envelopes import (
    EnvelopeError,
    apply_overrides,
    envelope_payload,
    parse_disambiguation_request,
)
from .protocol import (
    DEFAULT_MAX_BODY_BYTES,
    ChunkedNDJSONWriter,
    HTTPRequest,
    write_json_response,
)
from .ratelimit import RateLimiter


@dataclass(frozen=True)
class ServerConfig:
    """Operational knobs of the daemon (the pipeline knobs live in
    :class:`~repro.core.config.XSDFConfig`)."""

    host: str = "127.0.0.1"
    port: int = 8750
    max_concurrency: int = 8
    rate_limit: float = 0.0
    burst: int = 8
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    request_timeout: float | None = None
    drain_timeout: float = 10.0
    metrics_json: str | None = None
    max_sessions: int = 8
    packed: bool = True
    cache_size: int = DEFAULT_CACHE_SIZE
    workers: int = 1
    #: RXPD shard to mmap-attach the served index from (skips the
    #: startup index build; fingerprint-checked against the network).
    shard: "str | None" = None
    #: registry.toml manifest: serve every listed domain, selected per
    #: request by the envelope's ``domain`` key.
    registry: "str | None" = None
    #: The source network JSON behind ``shard`` (the CLI's --network):
    #: lets the scrubber re-pack a quarantined shard automatically.
    network_path: "str | None" = None
    #: Scrub one bounded slice of every attached shard each interval
    #: (seconds); 0 disables the background integrity scrubber.
    scrub_interval: float = 0.0
    #: Bytes re-verified per scrub slice.
    scrub_slice_bytes: int = 1 << 20
    #: Re-pack a quarantined shard from its source network when known.
    scrub_repair: bool = True
    #: Poll the registry manifest + shard files for changes and hot
    #: reload (seconds); 0 means SIGHUP-only reloads.
    reload_interval: float = 0.0

    def __post_init__(self) -> None:
        if self.shard and self.registry:
            raise ValueError(
                "shard and registry are mutually exclusive "
                "(the registry manifest already names each domain's shard)"
            )
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.rate_limit < 0:
            raise ValueError("rate_limit must be >= 0")
        if self.burst < 1:
            raise ValueError("burst must be >= 1")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ValueError("request_timeout must be > 0 (or None)")
        if self.drain_timeout < 0:
            raise ValueError("drain_timeout must be >= 0")
        if self.max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if self.scrub_interval < 0:
            raise ValueError("scrub_interval must be >= 0")
        if self.scrub_slice_bytes < 1:
            raise ValueError("scrub_slice_bytes must be >= 1")
        if self.reload_interval < 0:
            raise ValueError("reload_interval must be >= 0")


def run_one_document(session: BatchExecutor, name: str,
                     xml: str) -> BatchRecord:
    """Score one document through a resident session (worker thread).

    This is the whole bit-identity argument: the server calls the same
    ``BatchExecutor.run`` the CLI batch path calls, on the same
    resident caches, so the resulting record renders the same JSONL
    line.
    """
    return session.run([(name, xml)])[0]


def _close_stale(sessions: "OrderedDict[str, BatchExecutor]",
                 registry: "NetworkRegistry | None") -> None:
    """Close retired sessions (and registry) — submitted behind the
    scoring queue so in-flight requests finish on them first."""
    for session in sessions.values():
        session.close()
    if registry is not None:
        registry.close()


class ServerApp:
    """Everything the daemon keeps hot, plus the request handlers."""

    def __init__(
        self,
        network: SemanticNetwork,
        config: XSDFConfig | None = None,
        server_config: ServerConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.network = network
        self.config = config or XSDFConfig()
        self.server_config = server_config or ServerConfig()
        self.metrics = metrics or MetricsRegistry()
        self.limiter = RateLimiter(
            self.server_config.rate_limit, self.server_config.burst
        )
        self._started = time.monotonic()
        self._inflight = 0
        self._draining = False
        self._index = None
        self._registry: NetworkRegistry | None = None
        self._network_fingerprint: str | None = None
        self._sessions: "OrderedDict[str, BatchExecutor]" = OrderedDict()
        self._default_fingerprint: str | None = None
        self._scoring_pool: ThreadPoolExecutor | None = None
        # -- durability & supervision state --------------------------------
        self._scrubber = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        # Guards registry attach/damage calls, which may come from the
        # event loop (sessions) or the scoring thread (failover).
        self._registry_lock = threading.Lock()
        #: domain (or "default") -> damage kind, while failed over.
        self._degraded: dict[str, str] = {}
        self._reload_generation = 0
        self._reload_count = 0
        self._reload_error = ""
        self._watch_sig: "tuple | None" = None

    # -- lifecycle -----------------------------------------------------------

    def warm_up(self) -> None:
        """Build the shared index and the default session, eagerly.

        Called once before the listener opens so the first request pays
        no index-build latency and ``/healthz`` can report readiness
        truthfully.
        """
        if self._scoring_pool is None:
            self._scoring_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-score"
            )
        if self._default_fingerprint is None:
            with self.metrics.timer("server_warmup"):
                if self.server_config.registry and self._registry is None:
                    # The manifest's default domain becomes the served
                    # network; other domains attach lazily per request.
                    self._registry = NetworkRegistry.load(
                        self.server_config.registry
                    )
                    attached = self._registry.attach(
                        self._registry.default_domain
                    )
                    self.network = attached.network
                    self._index = attached.index
                    self._network_fingerprint = None
                elif self.server_config.shard and self._index is None:
                    # Zero-copy cold start: mmap the shard instead of
                    # building the index; the fingerprint check refuses
                    # a shard packed from a different network.
                    self._index = PackedIndex.from_mmap(
                        self.server_config.shard,
                        expect_fingerprint=self.network.fingerprint(),
                    )
                session = self._make_session(self.config, default=True)
                session.warm()
                self._index = session.index
                fingerprint = config_fingerprint(self.config)
                self._sessions[fingerprint] = session
                self._default_fingerprint = fingerprint

    @property
    def ready(self) -> bool:
        """Whether the index + default session have been built."""
        return self._default_fingerprint is not None

    @property
    def draining(self) -> bool:
        """Whether the daemon has stopped admitting new work."""
        return self._draining

    @property
    def inflight(self) -> int:
        """Disambiguation requests currently admitted."""
        return self._inflight

    def begin_drain(self) -> None:
        """Refuse new disambiguation work (in-flight requests finish)."""
        self._draining = True
        self.metrics.count("server_drains")
        self.metrics.event("server_drain", inflight=self._inflight)

    def close(self) -> None:
        """Release scoring thread, sessions' runtimes, and metrics.

        Every resident session drains its persistent pool and unlinks
        its temporary index shard here, so a SIGTERM drain leaves no
        worker processes or ``repro-index-*.rxpd`` files behind.  The scrub
        thread is stopped and joined first — it must not report damage
        into a half-torn-down app.
        """
        if self._scrubber is not None:
            self._scrubber.stop()
            self._scrubber = None
        self._loop = None
        if self._scoring_pool is not None:
            self._scoring_pool.shutdown(wait=False, cancel_futures=True)
            self._scoring_pool = None
        while self._sessions:
            _, session = self._sessions.popitem()
            session.close()
        if self._registry is not None:
            self._registry.close()
            self._registry = None
        self._default_fingerprint = None
        if self.server_config.metrics_json:
            self.metrics.write_json(self.server_config.metrics_json)

    # -- durability: scrubbing, failover, hot reload -------------------------

    def start_supervision(self, loop: asyncio.AbstractEventLoop) -> None:
        """Start the shard scrubber and seed the reload watch state.

        Called by the server once the event loop exists (after
        ``warm_up``): the scrub thread reports damage back onto
        ``loop`` via :meth:`_on_scrub_damage`, and the watch signature
        snapshot is what :meth:`maybe_reload` compares against.
        """
        self._loop = loop
        self._watch_sig = self._watch_signature()
        sc = self.server_config
        if sc.scrub_interval > 0 and self._scrubber is None:
            from ..runtime.scrubber import ShardScrubber

            scrubber = ShardScrubber(
                slice_bytes=sc.scrub_slice_bytes,
                interval_s=sc.scrub_interval,
                metrics=self.metrics,
                on_damage=self._on_scrub_damage,
                repair=sc.scrub_repair,
            )
            scrubber.reset_targets(self._scrub_targets())
            self._scrubber = scrubber
            scrubber.start()

    def _scrub_targets(self) -> "list[tuple[str, str | None, str | None]]":
        """(shard, source network, domain) triples to keep scrubbed."""
        sc = self.server_config
        targets: list[tuple[str, "str | None", "str | None"]] = []
        if self._registry is not None:
            for name in self._registry.domains():
                entry = self._registry.entry(name)
                if entry.shard_path:
                    targets.append(
                        (entry.shard_path, entry.network_path, name)
                    )
        elif sc.shard:
            targets.append((sc.shard, sc.network_path, None))
        return targets

    def _on_scrub_damage(self, target, kind: str) -> None:
        """Scrub-thread callback: hand the failover to the event loop."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._apply_failover, target, kind)
        except RuntimeError:  # lint: disable=silent-degrade,handler-envelope  # shutdown race: the loop closed while the scrub thread was reporting
            pass

    def _apply_failover(self, target, kind: str) -> None:
        """Event loop: record damage, condemn the shard, queue rebuild.

        The actual rebuild runs on the single scoring thread — queued
        *behind* every admitted request, so in-flight scoring finishes
        on the old backing (whose reads survive through the resilience
        ladder) before the swap.
        """
        key = target.domain or "default"
        self._degraded[key] = kind
        self.metrics.count("server_degraded")
        self.metrics.event(
            "server_backing_damaged",
            domain=key, kind=kind, path=target.path,
        )
        if self._registry is not None:
            with self._registry_lock:
                self._registry.mark_damaged(target.path)
        pool = self._scoring_pool
        if pool is not None:
            pool.submit(self._rebuild_backing, target.domain)

    def _rebuild_backing(self, domain: "str | None") -> None:
        """Scoring thread: build the replacement (heap) backing.

        Serialized after all queued scoring by the single-worker pool;
        installation hops back to the event loop.
        """
        loop = self._loop
        try:
            index = None
            if domain is None or (
                self._registry is not None
                and domain == self._registry.default_domain
            ):
                # The default backing: heap-build from the served
                # network (the mmap fast path is gone until repair).
                index = PackedIndex(self.network)
            elif self._registry is not None:
                # Re-attach under the damage mark: the registry skips
                # the condemned shard and heap-builds for the domain.
                with self._registry_lock:
                    self._registry.attach(domain)
            if loop is not None and not loop.is_closed():
                loop.call_soon_threadsafe(
                    self._install_backing, domain, index
                )
        except Exception as exc:  # lint: disable=broad-except,handler-envelope  # failover is last-resort: a failed rebuild must surface as an event, not kill the scoring thread
            self.metrics.event(
                "server_failover_failed",
                domain=domain or "default", error=str(exc),
            )

    def _install_backing(self, domain: "str | None",
                         index: "PackedIndex | None") -> None:
        """Event loop: atomically swap sessions onto the new backing.

        Old sessions are closed on the scoring thread *after* any
        queued work — the in-flight-requests-finish-first guarantee.
        """
        stale: "OrderedDict[str, BatchExecutor]" = OrderedDict()
        if index is not None:
            self._index = index
            stale = self._sessions
            self._sessions = OrderedDict()
            session = self._make_session(self.config, default=True)
            fingerprint = config_fingerprint(self.config)
            self._sessions[fingerprint] = session
            self._default_fingerprint = fingerprint
        elif domain is not None:
            prefix = f"{domain}|"
            for key in [k for k in self._sessions if k.startswith(prefix)]:
                stale[key] = self._sessions.pop(key)
        self._defer_close(stale)
        self.metrics.count("server_failovers")
        self.metrics.event(
            "server_failover",
            domain=domain or "default",
            backing=getattr(self._index, "backing", "heap"),
        )

    def _defer_close(self, sessions: "OrderedDict[str, BatchExecutor]",
                     registry: "NetworkRegistry | None" = None) -> None:
        """Close old sessions behind the scoring queue (or inline)."""
        if not sessions and registry is None:
            return
        pool = self._scoring_pool
        if pool is not None:
            pool.submit(_close_stale, sessions, registry)
        else:
            _close_stale(sessions, registry)

    def _watch_paths(self) -> "list[str]":
        """The on-disk files whose change triggers a hot reload."""
        sc = self.server_config
        paths: list[str] = []
        if sc.registry:
            paths.append(sc.registry)
            if self._registry is not None:
                for name in self._registry.domains():
                    entry = self._registry.entry(name)
                    if entry.shard_path:
                        paths.append(entry.shard_path)
        elif sc.shard:
            paths.append(sc.shard)
        return paths

    def _watch_signature(self) -> tuple:
        """Fingerprint of every watched file (mtime + size)."""
        sig = []
        for path in self._watch_paths():
            try:
                stat = os.stat(path)
                sig.append((path, stat.st_mtime_ns, stat.st_size))
            except OSError:  # lint: disable=handler-envelope  # not a request path: a vanished watch file is itself the change signal
                sig.append((path, None, None))
        return tuple(sig)

    def maybe_reload(self) -> bool:
        """Reload iff a watched file changed since the last snapshot."""
        sig = self._watch_signature()
        if self._watch_sig is None:
            self._watch_sig = sig
            return False
        if sig == self._watch_sig:
            return False
        return self.reload()

    def reload(self) -> bool:
        """Atomically swap serving state from the on-disk sources.

        The reload contract: requests already admitted finish on the
        old sessions (closed behind the scoring queue); new requests
        see the new registry/shard; damage marks and degraded state
        clear (a repaired shard re-attaches); and a *failed* reload
        changes nothing — the old state keeps serving and the error is
        surfaced in ``/healthz`` and the metrics events.
        """
        sc = self.server_config
        try:
            with self.metrics.timer("server_reload"):
                old_registry = None
                if sc.registry:
                    registry = NetworkRegistry.load(sc.registry)
                    attached = registry.attach(registry.default_domain)
                    old_registry = self._registry
                    with self._registry_lock:
                        self._registry = registry
                    self.network = attached.network
                    new_index = attached.index
                elif sc.shard:
                    new_index = PackedIndex.from_mmap(
                        sc.shard,
                        expect_fingerprint=self.network.fingerprint(),
                    )
                else:
                    # Nothing reloadable on disk; count the request so
                    # operators see their SIGHUP landed.
                    self._reload_generation += 1
                    self.metrics.event("server_reload_noop")
                    return False
                self._index = new_index
                stale = self._sessions
                self._sessions = OrderedDict()
                session = self._make_session(self.config, default=True)
                fingerprint = config_fingerprint(self.config)
                self._sessions[fingerprint] = session
                self._default_fingerprint = fingerprint
                self._network_fingerprint = None
                self._defer_close(stale, registry=old_registry)
                self._degraded.clear()
                if self._scrubber is not None:
                    self._scrubber.reset_targets(self._scrub_targets())
                self._reload_generation += 1
                self._reload_count += 1
                self._reload_error = ""
                self._watch_sig = self._watch_signature()
                self.metrics.count("server_reloads")
                self.metrics.event(
                    "server_reload",
                    generation=self._reload_generation,
                    backing=getattr(self._index, "backing", "heap"),
                )
                return True
        except Exception as exc:  # lint: disable=broad-except,handler-envelope  # a failed reload must leave the old state serving, not kill the daemon; the error is surfaced via /healthz
            self._reload_error = str(exc)
            self.metrics.event("server_reload_failed", error=str(exc))
            return False

    def durability_stats(self) -> dict:
        """The scrub/reload/degraded block for ``/healthz``."""
        return {
            "degraded": dict(self._degraded),
            "reload": {
                "generation": self._reload_generation,
                "count": self._reload_count,
                "watching": self._watch_paths(),
                "interval_s": self.server_config.reload_interval,
                "last_error": self._reload_error,
            },
            "scrubber": (
                self._scrubber.stats()
                if self._scrubber is not None else None
            ),
        }

    # -- sessions ------------------------------------------------------------

    def _make_session(self, config: XSDFConfig, default: bool = False,
                      domain: "str | None" = None) -> BatchExecutor:
        # Only the default session is wired into the metrics registry:
        # cache gauges are registered by fixed name, and the resident
        # session is the one whose warmth the operator is tracking.
        # Override sessions still run, they just are not individually
        # gauged.  ``workers > 1`` sessions own a persistent worker
        # pool + index shard path, reused across every request they
        # serve.  A ``domain`` session scores against that registry
        # domain's network and (usually mmap-attached) index.
        network, index = self.network, self._index
        if domain is not None and self._registry is not None:
            with self._registry_lock:
                attached = self._registry.attach(domain)
            network, index = attached.network, attached.index
        return BatchExecutor(
            network,
            config,
            workers=self.server_config.workers,
            packed=self.server_config.packed,
            cache_size=self.server_config.cache_size,
            metrics=self.metrics if default else None,
            index=index,
        )

    def session_for(self, config: XSDFConfig,
                    domain: "str | None" = None) -> BatchExecutor:
        """The resident session for this configuration (LRU-bounded).

        The default configuration's session is pinned; override
        sessions are created on demand, share the packed index, and are
        evicted least-recently-used beyond ``max_sessions``.  Registry
        domains get their own sessions — keyed by (domain, config
        fingerprint), because cache keys are only sound within one
        (network, configuration) pair.
        """
        fingerprint = config_fingerprint(config)
        if domain is not None:
            fingerprint = f"{domain}|{fingerprint}"
        session = self._sessions.get(fingerprint)
        if session is not None:
            self._sessions.move_to_end(fingerprint)
            return session
        session = self._make_session(config, domain=domain)
        self._sessions[fingerprint] = session
        self.metrics.count("server_sessions_created")
        while len(self._sessions) > self.server_config.max_sessions:
            oldest = next(iter(self._sessions))
            if oldest == self._default_fingerprint:
                self._sessions.move_to_end(oldest, last=True)
                oldest = next(iter(self._sessions))
            # Eviction must release runtime resources (persistent pool,
            # temporary index shard), not just drop the reference.
            self._sessions.pop(oldest).close()
            self.metrics.count("server_sessions_evicted")
        return session

    # -- routing -------------------------------------------------------------

    async def handle(self, request: HTTPRequest,
                     writer: asyncio.StreamWriter,
                     admitted: bool = True) -> None:
        """Dispatch one parsed request and write its full response.

        ``admitted`` is whether the connection was accepted before a
        drain began: pre-drain connections get to finish their one
        request whole (the drain contract), post-drain ones are
        refused with 503.
        """
        self.metrics.count("http_requests")
        if request.path == "/healthz":
            await self._handle_healthz(request, writer)
        elif request.path == "/metrics":
            await self._handle_metrics(request, writer)
        elif request.path == "/v1/disambiguate":
            await self._handle_disambiguate(request, writer, admitted)
        else:
            await self._write_envelope(
                writer, 404, self._routing_outcome(
                    request, f"no such endpoint: {request.path}",
                ),
            )

    async def _require_method(self, request: HTTPRequest,
                              writer: asyncio.StreamWriter,
                              method: str) -> bool:
        if request.method == method:
            return True
        await self._write_envelope(
            writer, 405, self._routing_outcome(
                request, f"{request.path} only accepts {method}",
            ),
            extra_headers=[("Allow", method)],
        )
        return False

    def _routing_outcome(self, request: HTTPRequest,
                         message: str) -> DocOutcome:
        return DocOutcome(
            name=request.path,
            status=STATUS_FAILED,
            stage="routing",
            error_type="RoutingError",
            error=message,
        )

    # -- operational endpoints -----------------------------------------------

    async def _handle_healthz(self, request: HTTPRequest,
                              writer: asyncio.StreamWriter) -> None:
        if not await self._require_method(request, writer, "GET"):
            return
        if self._network_fingerprint is None:
            # Hashing a 100k-concept network takes real time; the
            # network is frozen once served, so hash it once.
            self._network_fingerprint = self.network.fingerprint()
        if self._draining:
            status_word = "draining"
        elif self._degraded:
            # Serving continues on the fallback backing, but the fast
            # path is gone — operators should see it without digging.
            status_word = "degraded"
        else:
            status_word = "ok"
        payload = {
            "status": status_word,
            "ready": self.ready,
            "uptime_s": round(time.monotonic() - self._started, 3),
            "version": __version__,
            "index": {
                "fingerprint": self._network_fingerprint,
                "kind": "packed" if self.server_config.packed else "dict",
                "concepts": len(self.network),
                # "mmap" proves the zero-copy shard attach is live,
                # "heap" an in-process build.
                "backing": (
                    getattr(self._index, "backing", "heap")
                    if self._index is not None else None
                ),
            },
            "config_fingerprint": self._default_fingerprint,
            "inflight": self._inflight,
            "sessions": len(self._sessions),
            "rate_limiter": self.limiter.stats(),
        }
        if self._registry is not None:
            payload["registry"] = {
                "default": self._registry.default_domain,
                "domains": list(self._registry.domains()),
                **self._registry.stats(),
            }
        payload["durability"] = self.durability_stats()
        status = 200 if self.ready and not self._draining else 503
        await write_json_response(writer, status, payload)
        self.metrics.count(f"http_{status}")

    async def _handle_metrics(self, request: HTTPRequest,
                              writer: asyncio.StreamWriter) -> None:
        if not await self._require_method(request, writer, "GET"):
            return
        # Same schema as `repro batch --metrics-json`: one consumer-side
        # parser serves both the CLI artifact and the live endpoint.
        await write_json_response(writer, 200, self.metrics.snapshot())
        self.metrics.count("http_200")

    # -- disambiguation ------------------------------------------------------

    async def _handle_disambiguate(self, request: HTTPRequest,
                                   writer: asyncio.StreamWriter,
                                   admitted: bool = True) -> None:
        if not await self._require_method(request, writer, "POST"):
            return
        if self._draining and not admitted:
            self.metrics.count("admission_rejected")
            await self._write_envelope(
                writer, 503, self._admission_outcome(
                    "Draining", "server is draining; not accepting work"
                ),
                extra_headers=[("Retry-After", "1")],
            )
            return
        wait = self.limiter.admit(request.client)
        if wait > 0:
            self.metrics.count("rate_limited")
            await self._write_envelope(
                writer, 429, self._admission_outcome(
                    "RateLimited",
                    f"client {request.client or 'unknown'} is over its "
                    f"{self.limiter.rate}/s budget",
                ),
                extra_headers=[("Retry-After", str(math.ceil(wait)))],
            )
            return
        if self._inflight >= self.server_config.max_concurrency:
            self.metrics.count("admission_rejected")
            await self._write_envelope(
                writer, 503, self._admission_outcome(
                    "Overloaded",
                    f"admission queue is full "
                    f"({self.server_config.max_concurrency} in flight)",
                ),
                extra_headers=[("Retry-After", "1")],
            )
            return
        try:
            envelope = parse_disambiguation_request(request)
            config = apply_overrides(
                self.config, envelope.overrides, name=envelope.name
            )
            if envelope.domain is not None:
                if self._registry is None:
                    raise EnvelopeError(
                        400, "envelope",
                        "this server has no network registry; "
                        "'domain' is unavailable",
                        name=envelope.name,
                    )
                if envelope.domain not in self._registry.domains():
                    raise EnvelopeError(
                        404, "envelope",
                        f"unknown domain {envelope.domain!r} (registry "
                        f"defines "
                        f"{', '.join(self._registry.domains())})",
                        error_type="UnknownDomain",
                        name=envelope.name,
                    )
        except EnvelopeError as exc:
            self.metrics.count("envelope_rejected")
            await self._write_envelope(writer, exc.status, exc.outcome)
            return
        session = self.session_for(config, domain=envelope.domain)
        self._inflight += 1
        try:
            record = await self._score(session, envelope.name, envelope.xml)
        except (asyncio.TimeoutError, TimeoutError):
            self.metrics.count("request_timeouts")
            self.metrics.event(
                "request_timeout", doc=envelope.name,
                timeout_s=self.server_config.request_timeout,
            )
            await self._stream_envelope_only(
                writer, 504, DocOutcome(
                    name=envelope.name,
                    status=STATUS_FAILED,
                    stage="timeout",
                    error_type="TimeoutError",
                    error=(
                        "TimeoutError: exceeded request_timeout="
                        f"{self.server_config.request_timeout}s"
                    ),
                ),
            )
            return
        finally:
            self._inflight -= 1
        await self._stream_record(writer, record)

    async def _score(self, session: BatchExecutor, name: str,
                     xml: str) -> BatchRecord:
        """Run one document on the scoring thread (optionally bounded)."""
        assert self._scoring_pool is not None, "warm_up() was not called"
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(
            self._scoring_pool, run_one_document, session, name, xml
        )
        timeout = self.server_config.request_timeout
        if timeout is None:
            return await future
        return await asyncio.wait_for(future, timeout)

    async def _stream_record(self, writer: asyncio.StreamWriter,
                             record: BatchRecord) -> None:
        """The NDJSON success/failure stream for one scored document.

        Lines, in order: one ``{"annotation": ..., "doc": ..., "seq":
        ...}`` per resolved node (none for failures), then the record
        line **exactly as `repro batch` would write it** (byte
        identity), then the ``DocOutcome`` envelope line.
        """
        status = 200 if record.ok else 422
        stream = ChunkedNDJSONWriter(writer)
        await stream.start(status)
        if record.result is not None:
            for seq, annotation in enumerate(record.result["assignments"]):
                await stream.write_line({
                    "annotation": annotation,
                    "doc": record.name,
                    "seq": seq,
                })
        await stream.write_raw_line(record.to_json_line().encode("utf-8"))
        outcome = record.outcome or DocOutcome(name=record.name)
        await stream.write_line(envelope_payload(outcome))
        await stream.finish()
        self.metrics.count(f"http_{status}")
        self.metrics.count("documents_served")

    async def _stream_envelope_only(self, writer: asyncio.StreamWriter,
                                    status: int,
                                    outcome: DocOutcome) -> None:
        """An NDJSON response holding only the error envelope line."""
        stream = ChunkedNDJSONWriter(writer)
        await stream.start(status)
        await stream.write_line(envelope_payload(outcome))
        await stream.finish()
        self.metrics.count(f"http_{status}")

    def _admission_outcome(self, error_type: str,
                           message: str) -> DocOutcome:
        return DocOutcome(
            name="request",
            status=STATUS_FAILED,
            stage="admission",
            error_type=error_type,
            error=message,
        )

    async def _write_envelope(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        outcome: DocOutcome,
        extra_headers: list[tuple[str, str]] | None = None,
    ) -> None:
        """One fixed-length JSON error-envelope response."""
        await write_json_response(
            writer, status, envelope_payload(outcome),
            extra_headers=extra_headers,
        )
        self.metrics.count(f"http_{status}")
