"""Packed semantic kernels: the interned, flat-array semantic index.

Knowledge-based WSD spends most of its time in repeated taxonomy walks:
hypernym closures, depths, lowest common subsumers, information content
and gloss token bags are recomputed for the same concepts over and over
(conceptual-density methods amortize exactly these with precomputed
taxonomy tables — Agirre & Rigau).  :class:`PackedIndex` performs every
walk **once** per network, interns concept ids and gloss tokens to
dense integers, and lays the tables out as flat ``array`` buffers
(CSR-style offsets + values):

* **ancestor closures** — one ``(concept, distance)`` run per concept,
  in the exact BFS order the network produces;
* **depth / information-content tables** — one slot per concept;
* **gloss bags** — token-id sequences (order preserved: the extended
  Lesk overlap is sequence-sensitive) plus per-concept token *sets* for
  an exact-match quick reject.

The similarity kernels (:meth:`pair_terms` for the edge/node measures,
:meth:`lesk_similarity` for gloss overlap) consume the packed tables
directly and are **bit-identical** to the unpacked scores — the parity
suite in ``tests/similarity`` pins ``==`` equality for all 8 measures.
The lowest-common-subsumer tie-break is the same total order the
network uses: ``(depth, -distance-sum, concept-id)``.

The tables serialize to exactly one format, the ``RXPD`` shard
(:meth:`to_disk_payload`, written atomically by
:func:`repro.runtime.store.write_shard`): uncompressed, 8-byte aligned
sections under a 32-byte CRC-stamped header.  :meth:`from_mmap`
attaches a shard zero-copy, which is also how
:class:`repro.runtime.executor.BatchExecutor` ships a parent-built
index to pool workers — by path, never by pickle::

    packed = PackedIndex(network)
    write_shard(packed, "net.rxpd")     # one format, CRC-stamped
    clone = PackedIndex.from_mmap("net.rxpd", verify=True)
    xsdf = XSDF(network, config, index=clone)    # drop-in index=
"""

from __future__ import annotations

import mmap
import os
import struct
import sys
import time
import zlib
from array import array
from typing import Any, Iterable

from ..semnet.ic import InformationContent
from ..semnet.network import SemanticNetwork, UnknownConceptError
from ..similarity.gloss import GlossTokenMemo, extended_gloss_tokens

_VERSION = 1

#: On-disk shard magic (``repro pack`` output and the pool's worker
#: transport).  The body is uncompressed with 8-byte aligned sections,
#: so a mapped file serves the CSR tables as typed ``memoryview``
#: casts — zero decode, zero copy.
_DISK_MAGIC = b"RXPD"

#: Disk header: magic, version, byteorder flag, pad, CRC-32 of the
#: body, body length, and a 16-byte network fingerprint prefix
#: (SHA-256 of the source network, zero when unknown) so attaching
#: processes can refuse a shard built from a different network.  32
#: bytes, so the body stays 8-byte aligned.
_DISK_HEADER = struct.Struct("<4sHBxII16s")

#: Attribute names materialized on demand for mmap-attached indexes.
#: Cold attach leaves the string tables undecoded and the per-concept
#: memo lists unallocated (together they are the bulk of attach cost);
#: the first access of any of these materializes them all.
_LAZY_ATTRS = frozenset({
    "_ids", "_id_of", "_tokens", "_depths", "_ic_list",
    "_closures", "_bags", "_bag_sets", "_bag_counts",
})

#: Sentinel distinguishing "no memo entry" from a memoized ``None``.
_MISSING = object()


class PackedIndexError(ValueError):
    """Raised when a packed-index buffer is truncated or corrupted."""


class PackedIndexTruncatedError(PackedIndexError):
    """The buffer ends before the header/body it declares.

    Actionable: the payload was cut short in transit or on disk —
    re-ship or re-serialize it; the bytes that *are* present are intact.
    """


class PackedIndexCRCError(PackedIndexError):
    """The body checksum (or compressed stream) does not match.

    Actionable: the payload is the right length but its content was
    altered — a corrupt write, a bad copy, or injected chaos; rebuild
    the index from the network (the degradation ladder falls back to
    the network walk automatically).
    """


def _encode_strings(items: Iterable[str]) -> bytes:
    """NUL-join a string table (ids/tokens must not contain NUL)."""
    table = tuple(items)
    if any("\x00" in item for item in table):
        raise PackedIndexError("string table entries must not contain NUL")
    return "\x00".join(table).encode("utf-8")


def _decode_strings(blob: bytes) -> tuple[str, ...]:
    """Inverse of :func:`_encode_strings` (empty blob -> empty table)."""
    if not blob:
        return ()
    return tuple(blob.decode("utf-8").split("\x00"))


def _typecode_of(arr: "array | memoryview") -> str:
    """The element typecode of a flat table (array or memoryview)."""
    code = getattr(arr, "typecode", None)
    if code is None:
        code = arr.format  # a cast memoryview over a mapped shard
    return code


def _index_typecode(n: int) -> str:
    """Smallest unsigned array typecode that can hold ids ``< n``."""
    return "H" if n <= 0xFFFF else "I"


def _pad8(blob: bytes) -> bytes:
    """``blob`` zero-padded to a multiple of 8 bytes."""
    remainder = len(blob) % 8
    return blob if remainder == 0 else blob + b"\x00" * (8 - remainder)


def _array_section(arr: "array | memoryview") -> bytes:
    """One shard array payload: typecode, pad, count, raw data.

    The 8-byte prologue keeps the raw element data 8-aligned inside an
    8-aligned section, so ``memoryview.cast`` over the mapped shard
    serves even ``"d"`` tables without copying.
    """
    return (
        _typecode_of(arr).encode("ascii")
        + b"\x00\x00\x00"
        + struct.pack("<I", len(arr))
        + arr.tobytes()
    )


def _array_view(section: memoryview) -> memoryview:
    """Zero-copy typed view over one shard array payload."""
    if len(section) < 8:
        raise PackedIndexTruncatedError("array section truncated")
    typecode = bytes(section[:1]).decode("ascii")
    (count,) = struct.unpack_from("<I", section, 4)
    try:
        itemsize = array(typecode).itemsize
    except ValueError as exc:
        raise PackedIndexError(
            f"array section malformed: {exc}"
        ) from None
    data = section[8 : 8 + count * itemsize]
    if len(data) != count * itemsize:
        raise PackedIndexTruncatedError(
            f"array section declares {count} items, "
            f"holds {len(data) // max(1, itemsize)}"
        )
    return data.cast(typecode)


class _MmapAttachment:
    """Owns one read-only memory mapping of an ``RXPD`` shard file.

    The mapping is created with ``ACCESS_READ`` so every attaching
    process shares the same physical pages through the OS page cache —
    a second attach costs address space, not resident memory.  The
    backing fd is closed eagerly (POSIX mappings survive their fd),
    and :meth:`close` tolerates still-exported views so teardown order
    never matters.
    """

    __slots__ = ("path", "size", "_mmap")

    def __init__(self, path: str, mmap_obj: Any, size: int):
        self.path = path
        self.size = size
        self._mmap = mmap_obj

    @property
    def buf(self) -> memoryview:
        """A fresh view over the mapped shard."""
        return memoryview(self._mmap)

    def close(self) -> None:
        """Unmap once no table views are exported.

        A still-exported view (a caller kept a table slice alive past
        ``release_shared``) makes ``mmap.close`` raise ``BufferError``;
        the mapping is then reclaimed by refcount when the last view
        dies, so swallowing it leaks nothing.
        """
        try:
            self._mmap.close()
        except BufferError:  # lint: disable=silent-degrade  # refcount reclaims the mapping when the last view dies
            pass


class PackedIC:
    """Information-content view over a :class:`PackedIndex`.

    Presents the :class:`repro.semnet.ic.InformationContent` query API
    (``ic`` / ``max_ic`` / ``resnik`` / ``lin`` /
    ``jiang_conrath_distance``) served from the packed IC table, with
    the LCS resolved by the packed pair kernel.  Values are the exact
    floats the unpacked table holds, so scores are bit-identical.
    """

    __slots__ = ("_owner",)

    def __init__(self, owner: "PackedIndex"):
        self._owner = owner

    def ic(self, concept_id: str) -> float:
        """Information content of one concept."""
        owner = self._owner
        return owner._ic_list[owner._intern(concept_id)]

    @property
    def max_ic(self) -> float:
        """Highest finite IC in the network (for normalization)."""
        return self._owner._max_ic

    def resnik(self, a: str, b: str) -> float:
        """IC of the lowest common subsumer (0 when none exists)."""
        terms = self._owner.pair_terms(a, b)
        if terms is None:
            return 0.0
        return self._owner._ic_list[terms[0]]

    def lin(self, a: str, b: str) -> float:
        """Lin similarity ``2*IC(lcs) / (IC(a)+IC(b))`` in [0, 1]."""
        if a == b:
            return 1.0
        denominator = self.ic(a) + self.ic(b)
        if denominator <= 0:
            return 0.0
        return max(0.0, min(1.0, 2.0 * self.resnik(a, b) / denominator))

    def jiang_conrath_distance(self, a: str, b: str) -> float:
        """Jiang-Conrath distance ``IC(a) + IC(b) - 2 * IC(lcs)``."""
        return max(0.0, self.ic(a) + self.ic(b) - 2.0 * self.resnik(a, b))


def _interned_overlap_score(tokens_a: list[int], tokens_b: list[int]) -> float:
    """Greedy extended-Lesk overlap over interned token-id sequences.

    The same procedure as :func:`repro.similarity.gloss
    ._ngram_overlap_score` — repeatedly find the longest common
    contiguous run, score it ``len**2``, remove it from both sides —
    but the DP rows are *sparse*: only positions where the tokens
    actually match are visited (non-match cells are always zero and can
    never beat the running best), and comparisons are int equality
    instead of string equality.  Identical removal sequence, identical
    score, a fraction of the work.
    """
    a = list(tokens_a)
    b = list(tokens_b)
    score = 0.0
    while a and b:
        positions: dict[int, list[int]] = {}
        for j, token in enumerate(b):
            positions.setdefault(token, []).append(j)
        best_len = 0
        best_a = best_b = -1
        prev: dict[int, int] = {}
        for i, token in enumerate(a):
            hits = positions.get(token)
            row: dict[int, int] = {}
            if hits:
                prev_get = prev.get
                for j in hits:
                    length = prev_get(j - 1, 0) + 1
                    row[j] = length
                    if length > best_len:
                        best_len = length
                        best_a = i - length + 1
                        best_b = j - length + 1
            prev = row
        if best_len == 0:
            break
        score += float(best_len * best_len)
        del a[best_a : best_a + best_len]
        del b[best_b : best_b + best_len]
    return score


class PackedIndex:
    """Interned flat-array semantic index, serialized as an RXPD shard.

    The ``index=`` accelerator of the similarity measures and
    :class:`repro.core.framework.XSDF`: they route through its packed
    kernels, and every score is bit-identical to the plain network walk
    (the reference the parity suite compares against).

    Parameters
    ----------
    network:
        The network to index (not mutated; the packed tables are a
        snapshot and hold **no** reference to it afterwards).
    include_gloss:
        Pack extended-Lesk gloss token bags (True by default).
    ic_smoothing:
        Laplace smoothing for the information-content table, matching
        :class:`repro.semnet.ic.InformationContent`'s default.
    include_ic:
        Pack the IC table eagerly (True by default) so workers never
        recompute it.  Networks with no frequency mass (possible only
        with ``ic_smoothing=0``) simply omit the table.
    """

    #: Path of the ``RXPD`` shard this index was attached from (set by
    #: :meth:`from_mmap`; ``None`` for heap-built indexes).  The
    #: executor ships this path to pool workers as-is; a heap-built
    #: index is first written to a temporary shard of its own.
    shard_path: "str | None" = None

    def __init__(
        self,
        network: SemanticNetwork,
        include_gloss: bool = True,
        ic_smoothing: float = 1.0,
        include_ic: bool = True,
    ):
        start = time.perf_counter()
        ids = tuple(concept.id for concept in network)
        id_of = {cid: i for i, cid in enumerate(ids)}
        n = len(ids)

        # Closures in the network's own BFS order; a depth is the
        # minimal root distance within that closure (the formula of
        # SemanticNetwork.depth, without walking the closure again).
        roots = {cid for cid in ids if not network.hypernyms(cid)}
        anc_off = array("I", [0])
        anc_cid = array(_index_typecode(n))
        anc_dist = array("I")
        depths: list[int] = []
        for cid in ids:
            closure = network.hypernym_closure(cid)
            for ancestor, dist in closure.items():
                anc_cid.append(id_of[ancestor])
                anc_dist.append(dist)
            anc_off.append(len(anc_cid))
            depths.append(min(
                (dist for ancestor, dist in closure.items()
                 if ancestor in roots),
                default=0,
            ))

        tokens: tuple[str, ...] = ()
        gloss_off = gloss_tok = None
        if include_gloss:
            # One memo per build: neighbors' glosses are shared between
            # bags, so each gloss is tokenized and stemmed once.
            memo = GlossTokenMemo()
            token_of: dict[str, int] = {}
            flat: list[int] = []
            gloss_off = array("I", [0])
            for cid in ids:
                for token in extended_gloss_tokens(network, cid, memo=memo):
                    slot = token_of.get(token)
                    if slot is None:
                        slot = len(token_of)
                        token_of[token] = slot
                    flat.append(slot)
                gloss_off.append(len(flat))
            tokens = tuple(token_of)
            gloss_tok = array(_index_typecode(len(tokens)), flat)

        ic_values = None
        max_ic = 1.0
        if include_ic and n:
            try:
                ic = InformationContent(network, smoothing=ic_smoothing)
            except ValueError:  # lint: disable=silent-degrade  # no frequency mass -> IC table omitted by design
                ic = None  # no frequency mass (only when smoothing == 0)
            if ic is not None:
                ic_values = array("d", (ic.ic(cid) for cid in ids))
                max_ic = ic.max_ic

        self._mapping: _MmapAttachment | None = None
        self._lazy_blobs: tuple | None = None
        self._ids = ids
        self._id_of = id_of
        self._depths = depths
        self._anc_off = anc_off
        self._anc_cid = anc_cid
        self._anc_dist = anc_dist
        self._tokens = tokens
        self._gloss_off = gloss_off
        self._gloss_tok = gloss_tok
        self._ic_values = ic_values
        self._ic_list = ic_values.tolist() if ic_values is not None else None
        self._install_common(
            n=n,
            max_ic=max_ic,
            max_taxonomy_depth=max(depths, default=1),
            ic_smoothing=ic_smoothing,
        )
        self._install_derived(n)
        self.build_seconds = time.perf_counter() - start

    def _install_common(
        self,
        n: int,
        max_ic: float,
        max_taxonomy_depth: int,
        ic_smoothing: float,
    ) -> None:
        """(Re)initialize scalar metadata and the pair-kernel memo."""
        self._n = n
        self._max_ic = max_ic
        self.max_taxonomy_depth = max_taxonomy_depth
        self._ic_smoothing = ic_smoothing
        self.build_seconds = 0.0
        self._pair_memo: dict[
            tuple[int, int], tuple[int, int, int, int] | None
        ] = {}
        self._pair_hits = 0
        self._pair_misses = 0
        self._ic_view: PackedIC | None = None

    def _install_derived(self, n: int) -> None:
        """Allocate the per-concept memo lists (never serialized)."""
        self._closures: list[dict[int, int] | None] = [None] * n
        self._bags: list[list[int] | None] = [None] * n
        self._bag_sets: list[frozenset[int] | None] = [None] * n
        self._bag_counts: list[dict[int, int] | None] = [None] * n

    def __getattr__(self, name: str):
        """Materialize the deferred string tables on first access.

        Only fires for attributes missing from the instance dict: an
        mmap attach leaves ``_ids``/``_id_of``/``_tokens``/``_depths``/
        ``_ic_list`` unset so cold attach never pays the decode; the
        first interned lookup decodes them all at once, after which
        attribute access is back on the zero-overhead fast path.
        """
        if name in _LAZY_ATTRS and self.__dict__.get("_lazy_blobs") is not None:
            self._materialize_lazy()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _materialize_lazy(self) -> None:
        """Decode the deferred id/token/depth/IC tables (idempotent)."""
        lazy = self.__dict__.get("_lazy_blobs")
        if lazy is None:
            return
        id_blob, token_blob, depths, ic_values = lazy
        ids = _decode_strings(bytes(id_blob))
        if len(ids) != self._n:
            raise PackedIndexError(
                f"id table declares {self._n} concepts, holds {len(ids)}"
            )
        self._ids = ids
        self._id_of = {cid: i for i, cid in enumerate(ids)}
        self._tokens = _decode_strings(bytes(token_blob))
        self._depths = depths.tolist()
        self._ic_list = ic_values.tolist() if ic_values is not None else None
        self._install_derived(self._n)
        self._lazy_blobs = None

    # -- interning ------------------------------------------------------------

    def _intern(self, concept_id: str) -> int:
        """Dense integer id of one concept (raises on unknown ids)."""
        try:
            return self._id_of[concept_id]
        except KeyError:
            raise UnknownConceptError(concept_id) from None

    def concept_id(self, slot: int) -> str:
        """The concept-id string a dense integer id stands for."""
        return self._ids[slot]

    def __len__(self) -> int:
        # ``_n`` (not ``len(self._ids)``) so sizing an mmap-attached
        # index never forces the deferred string decode.
        return self._n

    # -- packed kernels -------------------------------------------------------

    def _closure(self, slot: int) -> dict[int, int]:
        """Interned ancestor->distance map of one concept (memoized)."""
        closure = self._closures[slot]
        if closure is None:
            lo, hi = self._anc_off[slot], self._anc_off[slot + 1]
            closure = dict(
                zip(self._anc_cid[lo:hi].tolist(),
                    self._anc_dist[lo:hi].tolist())
            )
            self._closures[slot] = closure
        return closure

    def pair_terms(
        self, a: str, b: str
    ) -> tuple[int, int, int, int] | None:
        """``(lcs_slot, depth(lcs), dist(a, lcs), dist(b, lcs))`` or None.

        One memoized lookup serves every taxonomic measure: Wu-Palmer
        reads all four terms, path/Leacock-Chodorow read the distance
        sum, and the IC measures read the LCS slot.  The memo is keyed
        on the unordered pair (the LCS and its tie-break are symmetric
        in ``a`` and ``b``), halving its footprint.
        """
        ia = self._intern(a)
        ib = self._intern(b)
        if ia <= ib:
            key = (ia, ib)
            swapped = False
        else:
            key = (ib, ia)
            swapped = True
        terms = self._pair_memo.get(key, _MISSING)
        if terms is _MISSING:
            self._pair_misses += 1
            terms = self._compute_pair(key[0], key[1])
            self._pair_memo[key] = terms
        else:
            self._pair_hits += 1
        if terms is None or not swapped:
            return terms
        lcs, depth, dist_a, dist_b = terms
        return (lcs, depth, dist_b, dist_a)

    def _compute_pair(
        self, ia: int, ib: int
    ) -> tuple[int, int, int, int] | None:
        """Scan the smaller closure for the max-key shared ancestor.

        The selection key is the total order ``(depth, -distance-sum,
        concept-id)`` — exactly the tie-break the network uses, so both
        paths agree bit-for-bit.
        """
        closure_a = self._closure(ia)
        closure_b = self._closure(ib)
        if len(closure_a) <= len(closure_b):
            outer, other, outer_is_a = closure_a, closure_b, True
        else:
            outer, other, outer_is_a = closure_b, closure_a, False
        depths = self._depths
        other_get = other.get
        best = -1
        best_depth = -1
        best_sum = 0
        best_out = best_oth = 0
        for cid, dist_out in outer.items():
            dist_oth = other_get(cid)
            if dist_oth is None:
                continue
            depth = depths[cid]
            total = dist_out + dist_oth
            if best < 0 or depth > best_depth or (
                depth == best_depth and (
                    total < best_sum or (
                        total == best_sum
                        and self._ids[cid] > self._ids[best]
                    )
                )
            ):
                best = cid
                best_depth = depth
                best_sum = total
                best_out = dist_out
                best_oth = dist_oth
        if best < 0:
            return None
        if outer_is_a:
            return (best, best_depth, best_out, best_oth)
        return (best, best_depth, best_oth, best_out)

    def _bag(self, slot: int) -> list[int]:
        """Interned gloss token sequence of one concept (memoized)."""
        bag = self._bags[slot]
        if bag is None:
            assert self._gloss_off is not None and self._gloss_tok is not None
            lo, hi = self._gloss_off[slot], self._gloss_off[slot + 1]
            bag = self._gloss_tok[lo:hi].tolist()
            self._bags[slot] = bag
        return bag

    def _bag_set(self, slot: int) -> frozenset[int]:
        """Distinct token ids of one gloss bag (for the quick reject)."""
        bag_set = self._bag_sets[slot]
        if bag_set is None:
            bag_set = frozenset(self._bag(slot))
            self._bag_sets[slot] = bag_set
        return bag_set

    def _bag_count(self, slot: int) -> dict[int, int]:
        """Token-id multiplicity map of one gloss bag (memoized)."""
        counts = self._bag_counts[slot]
        if counts is None:
            counts = {}
            for token in self._bag(slot):
                counts[token] = counts.get(token, 0) + 1
            self._bag_counts[slot] = counts
        return counts

    def lesk_upper_bound(self, a: str, b: str) -> float:
        """Cheap exact upper bound on :meth:`lesk_similarity`.

        Let ``m`` be the multiset-intersection size of the two token
        bags (``sum_t min(count_a(t), count_b(t))``).  Every maximal
        common run the greedy overlap removes is made of matched
        tokens, and runs are removed from both sides, so the removed
        lengths sum to at most ``m``; the raw score ``sum len_k**2``
        is therefore at most ``(sum len_k)**2 <= m**2``.  In floats:
        ``raw`` is an exactly-represented integer ``<= m**2``,
        ``sqrt`` is correctly rounded and ``m**2`` is a perfect
        square, so ``fl(sqrt(raw)) <= m`` exactly; division and
        ``min`` are monotone.  Hence ``min(1, m/shorter)`` bounds the
        true similarity in *float* arithmetic, which is what exact
        pruning requires.
        """
        if self._gloss_off is None:
            raise RuntimeError(
                "index was packed with include_gloss=False; "
                "gloss kernels are unavailable"
            )
        ia = self._intern(a)
        ib = self._intern(b)
        if ia == ib:
            return 1.0
        bag_a = self._bag(ia)
        bag_b = self._bag(ib)
        if not bag_a or not bag_b:
            return 0.0
        if self._bag_set(ia).isdisjoint(self._bag_set(ib)):
            return 0.0
        counts_a = self._bag_count(ia)
        counts_b = self._bag_count(ib)
        if len(counts_a) > len(counts_b):
            counts_a, counts_b = counts_b, counts_a
        other_get = counts_b.get
        m = 0
        for token, count in counts_a.items():
            other = other_get(token)
            if other is not None:
                m += count if count < other else other
        shorter = min(len(bag_a), len(bag_b))
        return min(1.0, m / shorter)

    def lesk_similarity(self, a: str, b: str) -> float:
        """Normalized extended-Lesk gloss overlap over interned tokens.

        Bit-identical to :class:`repro.similarity.gloss
        .ExtendedLeskSimilarity`'s unpacked arithmetic: disjoint token
        sets short-circuit to the same 0.0 the full DP would produce.
        """
        if self._gloss_off is None:
            raise RuntimeError(
                "index was packed with include_gloss=False; "
                "gloss kernels are unavailable"
            )
        ia = self._intern(a)
        ib = self._intern(b)
        if ia == ib:
            return 1.0
        bag_a = self._bag(ia)
        bag_b = self._bag(ib)
        if not bag_a or not bag_b:
            return 0.0
        if self._bag_set(ia).isdisjoint(self._bag_set(ib)):
            return 0.0
        raw = _interned_overlap_score(bag_a, bag_b)
        shorter = min(len(bag_a), len(bag_b))
        return min(1.0, (raw ** 0.5) / shorter)

    def ic_value(self, concept_id: str) -> float:
        """Packed information content of one concept (table lookup)."""
        ic_list = self._ic_list
        if ic_list is None:
            raise RuntimeError(
                "index was packed with include_ic=False; "
                "the IC table is unavailable"
            )
        return ic_list[self._intern(concept_id)]

    def ic_of_slot(self, slot: int) -> float:
        """Packed information content of one interned concept slot."""
        ic_list = self._ic_list
        if ic_list is None:
            raise RuntimeError(
                "index was packed with include_ic=False; "
                "the IC table is unavailable"
            )
        return ic_list[slot]

    # -- network-compatible query surface -------------------------------------

    @property
    def has_gloss(self) -> bool:
        """True when gloss bags were packed."""
        return self._gloss_off is not None

    @property
    def has_ic(self) -> bool:
        """True when the information-content table was packed."""
        return self._ic_values is not None

    @property
    def ic(self) -> PackedIC:
        """Information-content view (API-compatible with the IC table)."""
        if self._ic_list is None:
            raise RuntimeError(
                "index was packed with include_ic=False; "
                "the IC table is unavailable"
            )
        if self._ic_view is None:
            self._ic_view = PackedIC(self)
        return self._ic_view

    def hypernym_closure(self, concept_id: str) -> dict[str, int]:
        """Ancestor -> minimal IS-A distance (includes self at 0)."""
        slot = self._intern(concept_id)
        lo, hi = self._anc_off[slot], self._anc_off[slot + 1]
        ids = self._ids
        return {
            ids[cid]: dist
            for cid, dist in zip(self._anc_cid[lo:hi], self._anc_dist[lo:hi])
        }

    def depth(self, concept_id: str) -> int:
        """Minimal number of IS-A edges from a taxonomy root."""
        return self._depths[self._intern(concept_id)]

    def lowest_common_subsumer(self, a: str, b: str) -> str | None:
        """Deepest shared IS-A ancestor under the total tie-break order."""
        terms = self.pair_terms(a, b)
        if terms is None:
            return None
        return self._ids[terms[0]]

    def taxonomic_distance(self, a: str, b: str) -> int | None:
        """Shortest IS-A path length between two concepts (via the LCS)."""
        terms = self.pair_terms(a, b)
        if terms is None:
            return None
        return terms[2] + terms[3]

    def gloss_bag(self, concept_id: str) -> list[str]:
        """Extended-Lesk token bag of one concept (reconstructed strings)."""
        if self._gloss_off is None:
            raise RuntimeError(
                "index was packed with include_gloss=False; "
                "gloss bags are unavailable"
            )
        tokens = self._tokens
        return [tokens[t] for t in self._bag(self._intern(concept_id))]

    # -- RXPD shard layout ---------------------------------------------------

    def _disk_body(self) -> bytes:
        """The uncompressed 8-aligned section body of an RXPD shard."""
        flags = (1 if self._gloss_off is not None else 0) | (
            2 if self._ic_values is not None else 0
        )
        meta = struct.pack(
            "<IIBdd",
            len(self._ids),
            self.max_taxonomy_depth,
            flags,
            self._ic_smoothing,
            self._max_ic,
        )
        empty = array("I")
        sections = [
            meta,
            _encode_strings(self._ids),
            _array_section(array("I", self._depths)),
            _array_section(self._anc_off),
            _array_section(self._anc_cid),
            _array_section(self._anc_dist),
            _encode_strings(self._tokens),
            _array_section(self._gloss_off
                           if self._gloss_off is not None else empty),
            _array_section(self._gloss_tok
                           if self._gloss_tok is not None else empty),
            _array_section(self._ic_values
                           if self._ic_values is not None else array("d")),
        ]
        return b"".join(
            _pad8(struct.pack("<II", len(section), 0) + section)
            for section in sections
        )

    def to_disk_payload(self, fingerprint: str | None = None) -> bytes:
        """Serialize every table to the ``RXPD`` on-disk shard layout.

        The header carries magic, format version, byte order, a CRC-32
        of the body (checked by ``from_mmap(verify=True)``) and the
        first 16 bytes of the source network's SHA-256 fingerprint (all
        zeros when unknown) so :meth:`from_mmap` can refuse a shard
        built from a different network.
        """
        digest = b"\x00" * 16
        if fingerprint:
            try:
                digest = bytes.fromhex(fingerprint)[:16]
            except ValueError:
                raise PackedIndexError(
                    "fingerprint must be a hex digest"
                ) from None
            if len(digest) < 16:
                digest = digest.ljust(16, b"\x00")
        body = self._disk_body()
        header = _DISK_HEADER.pack(
            _DISK_MAGIC,
            _VERSION,
            0 if sys.byteorder == "little" else 1,
            zlib.crc32(body),
            len(body),
            digest,
        )
        return header + body

    def _attach_body(self, body: memoryview, owner: _MmapAttachment) -> None:
        """Install lazy table views over one shard section body.

        Cold attach touches only the section prologues — a handful of
        pages regardless of shard size; the string tables are decoded
        on first use.
        """
        body_len = len(body)
        sections: list[memoryview] = []
        offset = 0
        while offset < body_len:
            if offset + 8 > body_len:
                raise PackedIndexTruncatedError("section length truncated")
            (length,) = struct.unpack_from("<I", body, offset)
            offset += 8
            if offset + length > body_len:
                raise PackedIndexTruncatedError("section payload truncated")
            sections.append(body[offset : offset + length])
            offset += (length + 7) & ~7
        if len(sections) != 10:
            raise PackedIndexError(
                f"expected 10 sections, found {len(sections)}"
            )
        try:
            n, max_depth, flags, smoothing, max_ic = struct.unpack(
                "<IIBdd", sections[0]
            )
        except struct.error as exc:
            raise PackedIndexError(f"meta section malformed: {exc}") from None
        depths = _array_view(sections[2])
        anc_off = _array_view(sections[3])
        anc_cid = _array_view(sections[4])
        anc_dist = _array_view(sections[5])
        if len(anc_off) != n + 1 or len(depths) != n:
            raise PackedIndexError("taxonomy tables inconsistent")
        if len(anc_cid) != len(anc_dist) or (
            n and anc_off[-1] != len(anc_cid)
        ):
            raise PackedIndexError("ancestor tables inconsistent")
        gloss_off = gloss_tok = None
        if flags & 1:
            gloss_off = _array_view(sections[7])
            gloss_tok = _array_view(sections[8])
            if len(gloss_off) != n + 1 or (
                n and gloss_off[-1] != len(gloss_tok)
            ):
                raise PackedIndexError("gloss tables inconsistent")
        ic_values = None
        if flags & 2:
            ic_values = _array_view(sections[9])
            if len(ic_values) != n:
                raise PackedIndexError("IC table inconsistent")
        # Cold attach stays O(section count), not O(concepts): the
        # id/token tables (the bulk of the body) are kept as raw views,
        # decoded on the first access of any interned-string surface
        # (see ``__getattr__``).
        self._mapping = owner
        self._lazy_blobs = (sections[1], sections[6], depths, ic_values)
        self._anc_off = anc_off
        self._anc_cid = anc_cid
        self._anc_dist = anc_dist
        self._gloss_off = gloss_off
        self._gloss_tok = gloss_tok
        self._ic_values = ic_values
        self._install_common(
            n=n,
            max_ic=max_ic,
            max_taxonomy_depth=max_depth,
            ic_smoothing=smoothing,
        )

    @classmethod
    def from_mmap(
        cls,
        path: "str | os.PathLike[str]",
        verify: bool = False,
        expect_fingerprint: str | None = None,
    ) -> "PackedIndex":
        """Attach zero-copy to an ``RXPD`` shard file on disk.

        The file is memory-mapped read-only and the CSR tables become
        typed ``memoryview`` casts over the mapping — no decode, no
        copy, and every process attaching the same shard shares the
        same physical pages through the OS page cache.  Cold attach is
        O(section count): the id/token string tables stay undecoded
        until first use, so attaching a 100k-concept shard touches a
        handful of pages.

        ``verify=True`` additionally checks the body CRC-32, paging in
        the whole shard; pool workers always verify (a few ms even at
        100k concepts), while the default trusts a shard that
        :meth:`to_disk_payload` CRC-stamped and this method validates
        structurally (:func:`repro.runtime.store.verify_shard` and the
        scrubber re-check long-lived shards offline).
        ``expect_fingerprint`` (a network SHA-256 hex digest) raises
        when the shard records a different source network.  Raises
        ``FileNotFoundError``/``OSError`` for missing/unmappable files
        and the typed :class:`PackedIndexError` family for truncated or
        corrupted shards.
        """
        path = os.fspath(path)
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size < _DISK_HEADER.size:
                raise PackedIndexTruncatedError(
                    "shard file shorter than the RXPD header"
                )
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        owner = _MmapAttachment(path, mapped, size)
        try:
            start = time.perf_counter()
            mv = owner.buf.cast("B")
            magic, version, byteorder, crc, body_len, digest = (
                _DISK_HEADER.unpack_from(mv, 0)
            )
            if magic != _DISK_MAGIC:
                raise PackedIndexError("not an RXPD shard file (bad magic)")
            if version != _VERSION:
                raise PackedIndexError(
                    f"unsupported shard version {version}"
                )
            if byteorder != (0 if sys.byteorder == "little" else 1):
                raise PackedIndexError(
                    "shard file has a foreign byte order"
                )
            if _DISK_HEADER.size + body_len > size:
                raise PackedIndexTruncatedError(
                    f"shard truncated: header declares {body_len} body "
                    f"bytes, {size - _DISK_HEADER.size} present"
                )
            if expect_fingerprint is not None and digest != b"\x00" * 16:
                expected = bytes.fromhex(expect_fingerprint)[:16]
                if digest[: len(expected)] != expected:
                    raise PackedIndexError(
                        "shard was packed from a different network "
                        "(fingerprint mismatch)"
                    )
            body = mv[_DISK_HEADER.size : _DISK_HEADER.size + body_len]
            if verify and zlib.crc32(body) != crc:
                raise PackedIndexCRCError(
                    "shard corrupted (checksum mismatch)"
                )
            packed = cls.__new__(cls)
            packed._attach_body(body, owner)
            packed.shard_path = path
            packed.build_seconds = time.perf_counter() - start
            return packed
        except BaseException:  # lint: disable=broad-except  # close-and-reraise cleanup, not a handler
            owner.close()
            raise

    def release_shared(self) -> None:
        """Detach from the shard mapping backing this index, if any.

        The flat tables are materialized into private ``array`` copies
        (the index stays fully usable) and the mapping is closed.
        Safe to call on heap-built indexes (a no-op); idempotent.
        """
        owner = self._mapping
        if owner is None:
            return
        # Deferred string tables read through the mapping too — decode
        # them into private objects before the attachment goes away.
        self._materialize_lazy()

        def _materialize(view: "memoryview | None") -> "array | None":
            if view is None or isinstance(view, array):
                return view
            arr = array(_typecode_of(view))
            arr.frombytes(view.tobytes())
            return arr

        self._anc_off = _materialize(self._anc_off)
        self._anc_cid = _materialize(self._anc_cid)
        self._anc_dist = _materialize(self._anc_dist)
        self._gloss_off = _materialize(self._gloss_off)
        self._gloss_tok = _materialize(self._gloss_tok)
        self._ic_values = _materialize(self._ic_values)
        self._mapping = None
        owner.close()

    @property
    def backing(self) -> str:
        """Where the flat tables live: ``mmap`` or ``heap``.

        ``mmap`` — typed views over a memory-mapped ``RXPD`` shard file
        (pages shared with every other attaching process); ``heap`` —
        private ``array`` objects owned by this process.
        """
        return "heap" if self._mapping is None else "mmap"

    def __reduce__(self) -> Any:
        """Refuse pickling: an index crosses processes as a shard path."""
        raise TypeError(
            "PackedIndex does not pickle; write it with "
            "repro.runtime.store.write_shard and attach the file with "
            "PackedIndex.from_mmap"
        )

    # -- observability --------------------------------------------------------

    def stats(self) -> dict[str, int | float | str]:
        """Size/build statistics, including pair-kernel memo hit rates.

        ``backing`` reports where the tables live (``heap``/``mmap``).
        ``packed_bytes`` is the RXPD shard size: the mapped file's for
        attached indexes (re-serializing a mapped shard just to report
        a number would page the whole thing in), the serialized size
        for heap-built ones.
        """
        if self._mapping is None:
            packed_bytes = _DISK_HEADER.size + len(self._disk_body())
        else:
            packed_bytes = self._mapping.size
        return {
            "concepts": self._n,
            "backing": self.backing,
            "ancestor_entries": len(self._anc_cid),
            "gloss_tokens": (
                len(self._gloss_tok) if self._gloss_tok is not None else 0
            ),
            "distinct_tokens": (
                len(self._tokens)
                if self.__dict__.get("_lazy_blobs") is None
                else -1  # undecoded token table (mmap attach, cold)
            ),
            "pair_memo_pairs": len(self._pair_memo),
            "pair_memo_hits": self._pair_hits,
            "pair_memo_misses": self._pair_misses,
            "max_taxonomy_depth": self.max_taxonomy_depth,
            "packed_bytes": packed_bytes,
            "build_seconds": round(self.build_seconds, 6),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedIndex({self._n} concepts, "
            f"{len(self._anc_cid)} ancestor entries)"
        )
