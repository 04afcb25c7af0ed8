"""On-disk ``RXPD`` index shards and the multi-network registry.

``RXPD`` is the one serialized form of a :class:`PackedIndex`: the
``repro pack`` artifact, the registry's per-domain index, and the way
:class:`~repro.runtime.executor.BatchExecutor` ships an index to pool
workers (a temporary shard when the index was built in memory).
Without a shard, every fresh ``repro batch``/``repro serve``
invocation pays the full index build at startup.

* :func:`write_shard` — atomically write a :class:`PackedIndex` to an
  ``RXPD`` shard file (8-byte aligned sections under a 32-byte header
  carrying the body CRC and the source network's fingerprint);
* :meth:`PackedIndex.from_mmap` — attach the shard read-only through
  ``mmap``; every attaching process (server, pool workers, concurrent
  CLI runs) shares the same physical pages via the OS page cache;
* :class:`NetworkRegistry` — a ``registry.toml`` manifest mapping
  *domains* to ``(network, shard)`` pairs, with an LRU of attached
  shards and coverage-based cross-network fallback routing for
  documents whose vocabulary misses their primary domain.

The shard body is CRC-stamped at write time and structurally validated
at attach time; :func:`verify_shard` re-checks the full checksum (the
deep, page-everything-in variant) for offline integrity audits.
"""

from __future__ import annotations

import os
import re
import tomllib
from dataclasses import dataclass
from typing import Iterable

from ..semnet.io import load_network
from ..semnet.network import SemanticNetwork
from .pack import (
    _DISK_HEADER,
    _DISK_MAGIC,
    _VERSION,
    PackedIndex,
    PackedIndexError,
    PackedIndexTruncatedError,
)

#: Raw-token extractor for routing: every alphabetic run in a document
#: (tag names, attribute names, values) is a candidate lexicon term.
_WORD_RE = re.compile(r"[A-Za-z]+")


class RegistryError(ValueError):
    """Raised for malformed registry manifests and unknown domains."""


@dataclass(frozen=True)
class MmapIndexHandle:
    """A pool-shippable ticket for an on-disk shard attachment.

    The only way a :class:`PackedIndex` reaches pool workers: they
    receive the shard *path* and attach with
    :meth:`PackedIndex.from_mmap` — no payload pickling, and respawned
    workers re-attach the same file.  The executor that wrote a
    temporary shard unlinks it on ``close()``.
    """

    path: str
    size: int


def write_shard(
    index: PackedIndex,
    path: "str | os.PathLike[str]",
    fingerprint: str | None = None,
) -> dict:
    """Atomically write ``index`` to an ``RXPD`` shard file.

    The payload is staged to a sibling temp file and ``os.replace``-d
    into place, so a concurrent reader never maps a half-written shard.
    ``fingerprint`` (the source network's SHA-256 hex digest) is
    stamped into the header so attaches can detect a network/shard
    mismatch.  Returns a stats dict (path, bytes, concepts).
    """
    path = os.fspath(path)
    payload = index.to_disk_payload(fingerprint=fingerprint)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return {
        "path": path,
        "shard_bytes": len(payload),
        "concepts": len(index),
    }


def read_shard_header(path: "str | os.PathLike[str]") -> dict:
    """Parse and validate one shard's 32-byte header (no body I/O).

    Returns ``{version, body_bytes, file_bytes, fingerprint, crc}``
    with ``fingerprint`` the stamped hex prefix or ``None`` when the
    shard was written without one, and ``crc`` the stamped CRC-32 of
    the body (what the scrubber re-verifies incrementally).  Raises
    the typed :class:`~repro.runtime.pack.PackedIndexError` family on
    bad or truncated headers.
    """
    path = os.fspath(path)
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        raw = fh.read(_DISK_HEADER.size)
    if len(raw) < _DISK_HEADER.size:
        raise PackedIndexTruncatedError(
            "shard file shorter than the RXPD header"
        )
    magic, version, _byteorder, crc, body_len, digest = _DISK_HEADER.unpack(
        raw
    )
    if magic != _DISK_MAGIC:
        raise PackedIndexError("not an RXPD shard file (bad magic)")
    if version != _VERSION:
        raise PackedIndexError(f"unsupported shard version {version}")
    if _DISK_HEADER.size + body_len > size:
        raise PackedIndexTruncatedError(
            f"shard truncated: header declares {body_len} body bytes, "
            f"{size - _DISK_HEADER.size} present"
        )
    return {
        "version": version,
        "body_bytes": body_len,
        "file_bytes": size,
        "fingerprint": digest.hex() if digest != b"\x00" * 16 else None,
        "crc": crc,
    }


def verify_shard(path: "str | os.PathLike[str]") -> dict:
    """Deep-verify one shard: header, structure, and full body CRC.

    Pages the whole file in (that is the point); returns the shard's
    stats dict.  Raises :class:`PackedIndexTruncatedError` /
    :class:`~repro.runtime.pack.PackedIndexCRCError` on damage.
    """
    header = read_shard_header(path)
    index = PackedIndex.from_mmap(path, verify=True)
    try:
        stats = {
            "path": os.fspath(path),
            "concepts": len(index),
            "ancestor_entries": len(index._anc_cid),
            "shard_bytes": header["file_bytes"],
            "fingerprint": header["fingerprint"],
        }
    finally:
        index.release_shared()
    return stats


def document_terms(xml_text: str) -> tuple[str, ...]:
    """Distinct lowercased alphabetic tokens of one XML document.

    The routing vocabulary: every tag name, attribute, and value word
    is a candidate term.  Extraction is regex-based on purpose — the
    router must not fail on malformed XML (the pipeline will surface
    the parse error with a proper outcome; routing just needs a bag of
    words to score coverage with).
    """
    seen: dict[str, None] = {}
    for match in _WORD_RE.finditer(xml_text):
        seen.setdefault(match.group().lower())
    return tuple(seen)


@dataclass(frozen=True)
class RegistryEntry:
    """One domain's manifest row: where its network and shard live."""

    name: str
    network_path: str
    shard_path: "str | None"
    fallback: tuple[str, ...] = ()


@dataclass
class AttachedDomain:
    """One attached domain: its network and (possibly mmap) index."""

    entry: RegistryEntry
    network: SemanticNetwork
    index: PackedIndex


class NetworkRegistry:
    """Domain -> (network, shard) manifest with routed, LRU attachment.

    The manifest is TOML (parsed with the stdlib ``tomllib``)::

        default = "general"

        [networks.general]
        network = "general.network.json"   # repro-semnet JSON
        shard = "general.rxpd"             # optional: mmap fast path
        fallback = ["medical"]             # coverage-routed spillover

    Relative paths resolve against the manifest's directory.  A domain
    without a ``shard`` builds its :class:`PackedIndex` from the
    network on attach (the slow path — ``repro pack`` exists so you
    never have to).  At most ``max_attached`` domains stay attached;
    the least recently used is evicted and its mmap released
    (materializing nothing — an evicted index owned by a still-running
    session keeps working because eviction only drops the registry's
    reference, and ``release_shared`` is applied only when the registry
    owns the last one).

    Routing (:meth:`route`) scores each candidate domain by *lexicon
    coverage* — the fraction of a document's distinct alphabetic terms
    the domain's network knows — and falls back from the primary
    domain to its ``fallback`` list when one of them covers strictly
    more of the document.  Ties keep manifest order (primary first),
    so routing is deterministic.
    """

    def __init__(
        self,
        entries: "Iterable[RegistryEntry]",
        default: "str | None" = None,
        max_attached: int = 4,
        base_dir: str = ".",
        verify_fingerprints: bool = False,
    ):
        if max_attached < 1:
            raise RegistryError("max_attached must be >= 1")
        self._entries: dict[str, RegistryEntry] = {}
        for entry in entries:
            if entry.name in self._entries:
                raise RegistryError(f"duplicate domain {entry.name!r}")
            self._entries[entry.name] = entry
        if not self._entries:
            raise RegistryError("registry defines no networks")
        for entry in self._entries.values():
            for fb in entry.fallback:
                if fb not in self._entries:
                    raise RegistryError(
                        f"domain {entry.name!r} lists unknown fallback {fb!r}"
                    )
        if default is None:
            default = next(iter(self._entries))
        if default not in self._entries:
            raise RegistryError(f"default domain {default!r} is not defined")
        self.default_domain = default
        self.max_attached = max_attached
        self.base_dir = base_dir
        self.verify_fingerprints = verify_fingerprints
        # Insertion order is recency order (oldest first).
        self._attached: dict[str, AttachedDomain] = {}
        self._attach_count = 0
        self._evict_count = 0
        self._route_fallbacks = 0
        # Shard paths the scrubber condemned: attach() skips the mmap
        # rung for these until a repair/reload clears the mark.
        self._damaged: set[str] = set()

    @classmethod
    def load(
        cls,
        path: "str | os.PathLike[str]",
        max_attached: int = 4,
        verify_fingerprints: bool = False,
    ) -> "NetworkRegistry":
        """Parse a ``registry.toml`` manifest into a registry."""
        path = os.fspath(path)
        try:
            with open(path, "rb") as fh:
                manifest = tomllib.load(fh)
        except tomllib.TOMLDecodeError as exc:
            raise RegistryError(f"malformed registry manifest: {exc}") from None
        networks = manifest.get("networks")
        if not isinstance(networks, dict) or not networks:
            raise RegistryError(
                "registry manifest must define a [networks.<domain>] table"
            )
        base_dir = os.path.dirname(os.path.abspath(path))
        entries = []
        for name, spec in networks.items():
            if not isinstance(spec, dict) or "network" not in spec:
                raise RegistryError(
                    f"domain {name!r} must set a 'network' path"
                )
            fallback = spec.get("fallback", [])
            if not isinstance(fallback, list) or not all(
                isinstance(fb, str) for fb in fallback
            ):
                raise RegistryError(
                    f"domain {name!r}: 'fallback' must be a list of domains"
                )
            entries.append(RegistryEntry(
                name=name,
                network_path=os.path.join(base_dir, spec["network"]),
                shard_path=(
                    os.path.join(base_dir, spec["shard"])
                    if spec.get("shard") else None
                ),
                fallback=tuple(fallback),
            ))
        default = manifest.get("default")
        if default is not None and not isinstance(default, str):
            raise RegistryError("'default' must be a domain name")
        return cls(
            entries,
            default=default,
            max_attached=max_attached,
            base_dir=base_dir,
            verify_fingerprints=verify_fingerprints,
        )

    # -- manifest surface -----------------------------------------------------

    def domains(self) -> tuple[str, ...]:
        """Every declared domain, in manifest order."""
        return tuple(self._entries)

    def entry(self, domain: str) -> RegistryEntry:
        """The manifest row for ``domain`` (raises on unknown names)."""
        try:
            return self._entries[domain]
        except KeyError:
            raise RegistryError(
                f"unknown domain {domain!r} "
                f"(registry defines {', '.join(self._entries)})"
            ) from None

    # -- attachment LRU -------------------------------------------------------

    def attach(self, domain: str) -> AttachedDomain:
        """The attached network + index for ``domain`` (LRU-cached).

        A hit refreshes recency; a miss loads the network, attaches the
        shard via ``from_mmap`` when the manifest names one (falling
        back to an in-memory :class:`PackedIndex` build when the shard
        is missing or unreadable — the resilience ladder's next rung),
        and may evict the least recently used domain.
        """
        attached = self._attached.pop(domain, None)
        if attached is not None:
            self._attached[domain] = attached  # refresh recency
            return attached
        entry = self.entry(domain)
        network = load_network(entry.network_path)
        index: "PackedIndex | None" = None
        if entry.shard_path is not None and entry.shard_path not in (
            self._damaged
        ):
            expect = (
                network.fingerprint() if self.verify_fingerprints else None
            )
            try:
                index = PackedIndex.from_mmap(
                    entry.shard_path, expect_fingerprint=expect
                )
            except (PackedIndexError, OSError):  # lint: disable=silent-degrade  # ladder rung: shardless attach, surfaced via stats()["backing"]
                index = None
        if index is None:
            index = PackedIndex(network)
        attached = AttachedDomain(entry=entry, network=network, index=index)
        self._attached[domain] = attached
        self._attach_count += 1
        while len(self._attached) > self.max_attached:
            _, evicted = next(iter(self._attached.items()))
            self._evict(evicted)
        return attached

    def _evict(self, attached: AttachedDomain) -> None:
        """Drop the registry's reference to one attached domain.

        ``release_shared`` materializes the tables into private arrays
        first, so any session still holding the index keeps working —
        eviction trades the page-shared mapping for heap copies, never
        correctness.
        """
        self._attached.pop(attached.entry.name, None)
        self._evict_count += 1
        attached.index.release_shared()

    def mark_damaged(self, shard_path: str) -> tuple[str, ...]:
        """Condemn one shard path after an integrity failure.

        Every attached domain backed by that shard is *dropped* (not
        evicted — ``release_shared`` would materialize the tables by
        reading the damaged mapping, exactly the bytes we no longer
        trust; sessions still holding the old index degrade through the
        per-request resilience ladder instead).  Future :meth:`attach`
        calls skip the mmap rung and heap-build from the network until
        :meth:`clear_damaged` (post-repair reload) lifts the mark.
        Returns the affected domain names.
        """
        self._damaged.add(shard_path)
        affected = tuple(
            name for name, att in self._attached.items()
            if att.entry.shard_path == shard_path
            and att.index.backing == "mmap"
        )
        for name in affected:
            self._attached.pop(name, None)
        return affected

    def clear_damaged(self) -> None:
        """Forget every damage mark (a repaired shard may re-attach)."""
        self._damaged.clear()

    def close(self) -> None:
        """Release every attached shard (idempotent)."""
        while self._attached:
            _, attached = next(iter(self._attached.items()))
            self._evict(attached)

    def __enter__(self) -> "NetworkRegistry":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- routing --------------------------------------------------------------

    def _vocabulary_coverage(
        self, attached: AttachedDomain, terms: "tuple[str, ...]"
    ) -> float:
        """Fraction of ``terms`` the domain's lexicon knows."""
        if not terms:
            return 0.0
        network = attached.network
        known = sum(1 for term in terms if network.has_word(term))
        return known / len(terms)

    def route(
        self, xml_text: str, domain: "str | None" = None
    ) -> tuple[str, float]:
        """Pick the serving domain for one document.

        Returns ``(domain, coverage)``.  The primary is ``domain`` (or
        the manifest default); its ``fallback`` domains are scored only
        when they could win, and one takes over only with *strictly*
        higher lexicon coverage — a document at home in its primary
        domain never moves, and ties keep the primary (deterministic).
        """
        primary = self.entry(domain or self.default_domain)
        terms = document_terms(xml_text)
        best_name = primary.name
        best_cov = self._vocabulary_coverage(self.attach(primary.name), terms)
        if best_cov < 1.0:
            for name in primary.fallback:
                cov = self._vocabulary_coverage(self.attach(name), terms)
                if cov > best_cov:
                    best_name, best_cov = name, cov
        if best_name != primary.name:
            self._route_fallbacks += 1
        return best_name, best_cov

    # -- observability --------------------------------------------------------

    def stats(self) -> dict:
        """Registry counters and the per-domain attachment states.

        ``domain_count`` (not ``domains``) so the server's ``/healthz``
        can merge these counters next to its ``domains`` name list
        without a key collision.
        """
        return {
            "domain_count": len(self._entries),
            "attached": len(self._attached),
            "max_attached": self.max_attached,
            "attach_count": self._attach_count,
            "evictions": self._evict_count,
            "route_fallbacks": self._route_fallbacks,
            "damaged": sorted(self._damaged),
            "backings": {
                name: att.index.backing
                for name, att in self._attached.items()
            },
        }
