"""RXPD shard store and registry: persistence, damage, routing, pools.

Four contracts are pinned here:

* **shard round-trip** — ``write_shard`` → ``from_mmap`` reproduces
  every table exactly with ``backing == "mmap"``, and a truncated,
  corrupted, or mismatched shard raises the typed
  :class:`PackedIndexError` family instead of mis-attaching;
* **resilience ladder** — mmap attach → in-memory packed build → dict
  index all produce bit-identical batch JSONL (degrading the backing
  never changes a score);
* **registry** — the TOML manifest loads, attaches LRU-bounded,
  degrades shardless domains to heap builds, and routes documents by
  lexicon coverage deterministically;
* **worker shipping** — pool workers attach a shard-backed index by
  its own *path* (``shard_bytes`` is the shard's size, ``shm_bytes``
  stays 0), with results identical to the serial path; a mapped index
  never pickles.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.runtime import (
    BatchExecutor,
    PackedIndex,
    PackedIndexCRCError,
    PackedIndexError,
    PackedIndexTruncatedError,
    SemanticIndex,
    NetworkRegistry,
    RegistryError,
    read_shard_header,
    verify_shard,
    write_shard,
)
from repro.runtime.store import MmapIndexHandle, document_terms
from repro.semnet.generator import GeneratorConfig, generate_network
from repro.semnet.io import save_network

from .test_pack import _assert_query_parity, _sample_pairs


@pytest.fixture()
def lexicon_shard(lexicon, tmp_path):
    """The curated lexicon packed to an RXPD shard (fingerprinted)."""
    path = str(tmp_path / "lexicon.rxpd")
    write_shard(PackedIndex(lexicon), path, fingerprint=lexicon.fingerprint())
    return path


def _attach(path, **kwargs):
    return PackedIndex.from_mmap(path, **kwargs)


class TestShardRoundTrip:
    def test_mmap_attach_reproduces_every_query(
        self, lexicon, lexicon_index, lexicon_shard
    ):
        packed = _attach(lexicon_shard)
        try:
            assert packed.backing == "mmap"
            assert packed.shard_path == lexicon_shard
            assert len(packed) == len(lexicon)
            pairs = _sample_pairs(lexicon)
            _assert_query_parity(lexicon, lexicon_index, packed, pairs)
        finally:
            packed.release_shared()

    def test_attach_defers_decode_then_len_is_cheap(self, lexicon_shard):
        packed = _attach(lexicon_shard)
        try:
            # __len__ must not force materialization (the zero-copy
            # cold-start contract: attach + size is decode-free).
            assert len(packed) > 0
            assert packed._lazy_blobs is not None
        finally:
            packed.release_shared()

    def test_write_is_atomic_no_temp_residue(self, lexicon, tmp_path):
        path = tmp_path / "atomic.rxpd"
        write_shard(PackedIndex(lexicon), path)
        leftovers = [p for p in os.listdir(tmp_path) if ".tmp." in p]
        assert leftovers == []
        assert path.is_file()

    def test_header_reports_size_and_fingerprint(
        self, lexicon, lexicon_shard, tmp_path
    ):
        header = read_shard_header(lexicon_shard)
        assert header["version"] == 1
        assert header["file_bytes"] == os.path.getsize(lexicon_shard)
        assert header["body_bytes"] == header["file_bytes"] - 32
        assert lexicon.fingerprint().startswith(header["fingerprint"])
        # Unstamped shards report no fingerprint at all.
        bare = str(tmp_path / "bare.rxpd")
        write_shard(PackedIndex(lexicon), bare)
        assert read_shard_header(bare)["fingerprint"] is None

    def test_verify_shard_passes_on_intact_file(self, lexicon, lexicon_shard):
        stats = verify_shard(lexicon_shard)
        assert stats["concepts"] == len(lexicon)
        assert stats["shard_bytes"] == os.path.getsize(lexicon_shard)

    def test_release_shared_materializes_to_heap(
        self, lexicon, lexicon_index, lexicon_shard
    ):
        packed = _attach(lexicon_shard)
        packed.release_shared()
        assert packed.backing == "heap"
        pairs = _sample_pairs(lexicon, n_pairs=40)
        _assert_query_parity(lexicon, lexicon_index, packed, pairs)

    def test_pickle_of_mmap_index_is_refused(self, lexicon_shard):
        """Ship the shard path (``MmapIndexHandle``), never the index."""
        packed = _attach(lexicon_shard)
        try:
            with pytest.raises(TypeError, match="from_mmap"):
                pickle.dumps(packed)
        finally:
            packed.release_shared()


class TestDamagedShards:
    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            _attach(str(tmp_path / "nope.rxpd"))

    def test_short_header_raises_truncated(self, tmp_path, lexicon_shard):
        stub = tmp_path / "stub.rxpd"
        stub.write_bytes(open(lexicon_shard, "rb").read()[:16])
        with pytest.raises(PackedIndexTruncatedError):
            _attach(str(stub))
        with pytest.raises(PackedIndexTruncatedError):
            read_shard_header(str(stub))

    def test_bad_magic_raises(self, tmp_path, lexicon_shard):
        payload = bytearray(open(lexicon_shard, "rb").read())
        payload[:4] = b"NOPE"
        bad = tmp_path / "bad.rxpd"
        bad.write_bytes(payload)
        with pytest.raises(PackedIndexError):
            _attach(str(bad))

    def test_mid_section_truncation_raises_truncated(
        self, tmp_path, lexicon_shard
    ):
        payload = open(lexicon_shard, "rb").read()
        for fraction in (0.3, 0.7, 0.95):
            cut = tmp_path / f"cut-{fraction}.rxpd"
            cut.write_bytes(payload[: int(len(payload) * fraction)])
            with pytest.raises(PackedIndexTruncatedError):
                _attach(str(cut))

    def test_flipped_body_byte_fails_crc_verify(
        self, tmp_path, lexicon_shard
    ):
        payload = bytearray(open(lexicon_shard, "rb").read())
        payload[len(payload) // 2] ^= 0xFF
        bad = tmp_path / "crc.rxpd"
        bad.write_bytes(payload)
        with pytest.raises(PackedIndexCRCError):
            _attach(str(bad), verify=True)
        with pytest.raises(PackedIndexCRCError):
            verify_shard(str(bad))

    def test_fingerprint_mismatch_raises(self, lexicon_shard):
        with pytest.raises(PackedIndexError):
            _attach(lexicon_shard, expect_fingerprint="ab" * 32)

    def test_matching_fingerprint_attaches(self, lexicon, lexicon_shard):
        packed = _attach(
            lexicon_shard, expect_fingerprint=lexicon.fingerprint()
        )
        packed.release_shared()


class TestResilienceLadder:
    def test_mmap_packed_dict_batches_are_bit_identical(
        self, lexicon, lexicon_shard, figure1_xml
    ):
        """Every rung of the ladder yields the same JSONL bytes."""
        docs = [(f"doc-{i}", figure1_xml) for i in range(3)]
        outputs = []
        for index in (
            _attach(lexicon_shard),          # mmap shard
            PackedIndex(lexicon),            # in-memory packed
            SemanticIndex(lexicon),          # dict-keyed
        ):
            with BatchExecutor(lexicon, index=index) as executor:
                records = executor.run(docs)
            outputs.append([r.to_json_line() for r in records])
        assert outputs[0] == outputs[1] == outputs[2]


class TestWorkerShipping:
    def test_pool_workers_attach_shard_by_path(
        self, lexicon, lexicon_shard, figure1_xml
    ):
        """A shard-backed index ships its own path, no temp shard."""
        docs = [(f"doc-{i}", figure1_xml) for i in range(4)]
        index = _attach(lexicon_shard)
        with BatchExecutor(
            lexicon, workers=2, index=index, oversubscribe=True
        ) as executor:
            parallel = [r.to_json_line() for r in executor.run(docs)]
            stats = executor.runtime_stats()
        index.release_shared()
        assert stats["shard_bytes"] == os.path.getsize(lexicon_shard)
        assert stats["shm_bytes"] == 0
        with BatchExecutor(lexicon) as serial_executor:
            serial = [r.to_json_line() for r in serial_executor.run(docs)]
        assert parallel == serial

    def test_handle_is_a_small_frozen_ticket(self, lexicon_shard):
        handle = MmapIndexHandle(
            path=lexicon_shard, size=os.path.getsize(lexicon_shard)
        )
        assert len(pickle.dumps(handle)) < 500
        with pytest.raises(AttributeError):
            handle.path = "elsewhere"


def _registry_tree(tmp_path, shard_for=("alpha",), fallback=()):
    """Two-domain manifest: disjoint synthetic vocabularies."""
    nets = {}
    for name, seed in (("alpha", 101), ("beta", 202)):
        net = generate_network(GeneratorConfig(
            n_concepts=120, seed=seed, gloss_style="local"
        ))
        save_network(net, str(tmp_path / f"{name}.network.json"))
        if name in shard_for:
            write_shard(
                PackedIndex(net),
                str(tmp_path / f"{name}.rxpd"),
                fingerprint=net.fingerprint(),
            )
        nets[name] = net
    fallback_line = (
        "fallback = [{}]\n".format(
            ", ".join(f'"{fb}"' for fb in fallback)
        ) if fallback else ""
    )
    manifest = tmp_path / "registry.toml"
    manifest.write_text(
        'default = "alpha"\n'
        '\n'
        '[networks.alpha]\n'
        'network = "alpha.network.json"\n'
        + ('shard = "alpha.rxpd"\n' if "alpha" in shard_for else "")
        + fallback_line
        + '\n'
        '[networks.beta]\n'
        'network = "beta.network.json"\n'
        + ('shard = "beta.rxpd"\n' if "beta" in shard_for else "")
    )
    return str(manifest), nets


def _doc_for(network, n_words=8):
    """An XML document speaking ``network``'s vocabulary."""
    words = sorted(network.words())[:n_words]
    body = "".join(f"<{w}>{w}</{w}>" for w in words)
    return f"<record>{body}</record>"


class TestRegistry:
    def test_load_attach_and_backings(self, tmp_path):
        manifest, nets = _registry_tree(tmp_path, shard_for=("alpha",))
        with NetworkRegistry.load(manifest) as registry:
            assert registry.domains() == ("alpha", "beta")
            assert registry.default_domain == "alpha"
            assert registry.attach("alpha").index.backing == "mmap"
            # No shard declared: the ladder builds in-memory instead.
            assert registry.attach("beta").index.backing == "heap"
            assert registry.stats()["attached"] == 2

    def test_attach_verifies_fingerprints_when_asked(self, tmp_path):
        manifest, nets = _registry_tree(
            tmp_path, shard_for=("alpha", "beta")
        )
        registry = NetworkRegistry.load(manifest, verify_fingerprints=True)
        try:
            assert registry.attach("alpha").index.backing == "mmap"
        finally:
            registry.close()

    def test_stale_shard_degrades_to_heap_build(self, tmp_path):
        manifest, nets = _registry_tree(tmp_path, shard_for=("alpha",))
        # Overwrite alpha's shard with beta's tables: the fingerprint
        # check must reject it and the attach degrade to a heap build
        # over the *correct* network.
        write_shard(
            PackedIndex(nets["beta"]),
            str(tmp_path / "alpha.rxpd"),
            fingerprint=nets["beta"].fingerprint(),
        )
        registry = NetworkRegistry.load(manifest, verify_fingerprints=True)
        try:
            attached = registry.attach("alpha")
            assert attached.index.backing == "heap"
            assert len(attached.index) == len(nets["alpha"])
        finally:
            registry.close()

    def test_lru_eviction_keeps_evicted_index_usable(self, tmp_path):
        manifest, nets = _registry_tree(tmp_path, shard_for=("alpha",))
        registry = NetworkRegistry.load(manifest, max_attached=1)
        try:
            alpha = registry.attach("alpha")
            cid = next(iter(nets["alpha"])).id
            before = alpha.index.hypernym_closure(cid)
            registry.attach("beta")  # evicts alpha
            assert registry.stats()["attached"] == 1
            assert registry.stats()["evictions"] == 1
            # Eviction released the mmap but materialized first: the
            # index a session still holds keeps answering identically.
            assert alpha.index.backing == "heap"
            assert alpha.index.hypernym_closure(cid) == before
        finally:
            registry.close()

    def test_routing_prefers_covering_fallback(self, tmp_path):
        manifest, nets = _registry_tree(
            tmp_path, shard_for=(), fallback=("beta",)
        )
        registry = NetworkRegistry.load(manifest)
        try:
            home, cov = registry.route(_doc_for(nets["alpha"]))
            assert home == "alpha" and cov > 0.8
            away, away_cov = registry.route(_doc_for(nets["beta"]))
            assert away == "beta" and away_cov > 0.8
            assert registry.stats()["route_fallbacks"] == 1
        finally:
            registry.close()

    def test_routing_tie_keeps_primary(self, tmp_path):
        manifest, nets = _registry_tree(
            tmp_path, shard_for=(), fallback=("beta",)
        )
        registry = NetworkRegistry.load(manifest)
        try:
            # No alphabetic terms: every coverage is 0.0, a tie — the
            # primary must win deterministically.
            name, cov = registry.route("<a1><b2/></a1>")
            assert name == "alpha" and cov == 0.0
        finally:
            registry.close()

    def test_unknown_domain_and_bad_manifests_raise(self, tmp_path):
        manifest, _ = _registry_tree(tmp_path)
        registry = NetworkRegistry.load(manifest)
        try:
            with pytest.raises(RegistryError):
                registry.entry("gamma")
        finally:
            registry.close()
        broken = tmp_path / "broken.toml"
        broken.write_text("default = [not toml")
        with pytest.raises(RegistryError):
            NetworkRegistry.load(str(broken))
        empty = tmp_path / "empty.toml"
        empty.write_text('default = "x"\n')
        with pytest.raises(RegistryError):
            NetworkRegistry.load(str(empty))
        nofb = tmp_path / "nofb.toml"
        nofb.write_text(
            '[networks.a]\nnetwork = "a.json"\nfallback = ["ghost"]\n'
        )
        with pytest.raises(RegistryError):
            NetworkRegistry.load(str(nofb))


class TestDamageMarks:
    def test_header_exposes_the_body_crc(self, lexicon_shard):
        header = read_shard_header(lexicon_shard)
        assert isinstance(header["crc"], int)
        # The stamped CRC is the scrubber's ground truth: it must match
        # an independent recomputation over the body bytes.
        import zlib
        with open(lexicon_shard, "rb") as fh:
            fh.seek(32)
            body = fh.read(header["body_bytes"])
        assert zlib.crc32(body) == header["crc"]

    def test_mark_damaged_drops_mmap_attachments_without_reading(
            self, tmp_path):
        manifest, nets = _registry_tree(tmp_path, shard_for=("alpha",))
        registry = NetworkRegistry.load(manifest)
        try:
            alpha = registry.attach("alpha")
            assert alpha.index.backing == "mmap"
            shard_path = registry.entry("alpha").shard_path
            affected = registry.mark_damaged(shard_path)
            assert affected == ("alpha",)
            assert registry.stats()["damaged"] == [shard_path]
            # Dropped, not evicted: the damaged mapping must not be
            # read to materialize, so the old handle stays mmap-backed
            # (sessions degrade through the per-request ladder instead).
            assert alpha.index.backing == "mmap"
            assert registry.stats()["attached"] == 0
        finally:
            registry.close()

    def test_attach_skips_condemned_shard_and_heap_builds(self, tmp_path):
        manifest, nets = _registry_tree(tmp_path, shard_for=("alpha",))
        registry = NetworkRegistry.load(manifest)
        try:
            shard_path = registry.entry("alpha").shard_path
            registry.mark_damaged(shard_path)
            attached = registry.attach("alpha")
            assert attached.index.backing == "heap"
            assert len(attached.index) == len(nets["alpha"])
            # clear_damaged (post-repair reload) restores the fast
            # path; close() first so the next attach is a real miss.
            registry.close()
            registry.clear_damaged()
            assert registry.attach("alpha").index.backing == "mmap"
        finally:
            registry.close()

    def test_mark_damaged_leaves_heap_attachments_alone(self, tmp_path):
        manifest, nets = _registry_tree(tmp_path, shard_for=("alpha",))
        registry = NetworkRegistry.load(manifest)
        try:
            shard_path = registry.entry("alpha").shard_path
            registry.mark_damaged(shard_path)
            registry.attach("alpha")  # heap build under the mark
            # A second damage report for the same shard must not drop
            # the heap fallback that replaced it.
            assert registry.mark_damaged(shard_path) == ()
            assert registry.stats()["attached"] == 1
        finally:
            registry.close()


class TestDocumentTerms:
    def test_terms_are_distinct_lowercased_and_ordered(self):
        terms = document_terms("<Book><title>The BOOK of books</title></Book>")
        assert terms == ("book", "title", "the", "of", "books")

    def test_malformed_xml_still_yields_terms(self):
        assert "broken" in document_terms("<broken <<< &&& markup")
