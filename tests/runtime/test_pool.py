"""Persistent pool runtime: lifecycle, temp-shard hygiene, crash recovery.

The contracts pinned here:

* a second batch on the same executor **reuses** the warm pool and the
  shipped index shard (no respawn, no rewrite);
* a worker hard-killed mid-document (``os._exit``, the crash no
  ``except`` can catch) triggers respawn-and-requeue, the respawned
  generation re-attaches the same shard path, and the batch still
  completes with byte-identical survivors;
* ``close()`` — or the GC finalizer of a dropped executor — unlinks
  the temporary ``repro-index-*.rxpd`` shard; an index attached from a
  shard ships that shard's own path and writes no temp file;
* serial and persistent-pool output are byte-identical even across
  ``PYTHONHASHSEED`` variation (subprocess-checked, since the hash
  seed is frozen at interpreter start).
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import tempfile

import pytest

from repro import XSDFConfig
from repro.runtime import (
    BatchExecutor,
    FaultInjector,
    FaultSpec,
    MetricsRegistry,
    PackedIndex,
    auto_workers,
    parse_workers,
    write_shard,
)
from repro.runtime.executor import sweep_orphan_shards


def _dead_pid() -> int:
    """The pid of a child that has exited and been reaped."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


@pytest.fixture()
def private_tmp(tmp_path, monkeypatch):
    """Route ``tempfile`` to a fresh directory; returns its shard lister."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

    def temp_shards():
        return sorted(
            name for name in os.listdir(tmp_path)
            if name.startswith("repro-index-") and name.endswith(".rxpd")
        )

    return temp_shards


class TestWorkerCountHelpers:
    def test_auto_workers_is_a_positive_int(self):
        count = auto_workers()
        assert isinstance(count, int)
        assert count >= 1

    def test_auto_workers_respects_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "process_cpu_count", raising=False)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 3}, raising=False
        )
        assert auto_workers() == 2

    def test_parse_workers_accepts_auto_and_integers(self):
        assert parse_workers("auto") == auto_workers()
        assert parse_workers(" AUTO ") == auto_workers()
        assert parse_workers("3") == 3
        assert parse_workers(4) == 4
        # Range validation stays with the consumer: 0 parses fine and
        # must be rejected by BatchExecutor with its historical error.
        assert parse_workers("0") == 0

    def test_parse_workers_rejects_garbage(self):
        with pytest.raises(ValueError, match="integer or 'auto'"):
            parse_workers("banana")

    def test_executor_still_rejects_nonpositive_workers(self, lexicon):
        with pytest.raises(ValueError, match="workers"):
            BatchExecutor(lexicon, workers=parse_workers("0"))


class TestWarmPoolReuse:
    def test_second_batch_reuses_the_pool(self, lexicon, figure1_xml):
        metrics = MetricsRegistry()
        docs = [(f"doc-{i}", figure1_xml) for i in range(4)]
        with BatchExecutor(
            lexicon, XSDFConfig(), workers=2, metrics=metrics,
            oversubscribe=True,  # exercise the real pool on 1-CPU hosts
        ) as executor:
            first = [r.to_json_line() for r in executor.run(docs)]
            stats = executor.runtime_stats()
            assert stats["alive"] == 1
            assert stats["generation"] == 1
            assert stats["pool_reuse_count"] == 0
            assert stats["shard_bytes"] > 0
            assert stats["shm_bytes"] == 0
            second = [r.to_json_line() for r in executor.run(docs)]
            stats = executor.runtime_stats()
            # Same generation: the warm pool served the second batch;
            # nothing was respawned or republished.
            assert stats["generation"] == 1
            assert stats["pool_reuse_count"] == 1
            assert stats["worker_respawns"] == 0
            assert first == second
        assert metrics.counter("pool_spawns") == 1
        assert metrics.counter("pool_reuses") == 1

    def test_close_is_idempotent_and_executor_stays_usable(
        self, lexicon, figure1_xml
    ):
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=2, oversubscribe=True
        )
        docs = [(f"doc-{i}", figure1_xml) for i in range(3)]
        baseline = [r.to_json_line() for r in executor.run(docs)]
        executor.close()
        executor.close()
        # The serial path (and a fresh parallel runtime) still works.
        again = [r.to_json_line() for r in executor.run(docs)]
        assert again == baseline
        executor.close()


class TestTempShardHygiene:
    def test_close_unlinks_the_temp_shard(
        self, lexicon, figure1_xml, private_tmp
    ):
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=2, oversubscribe=True
        )
        executor.run([(f"doc-{i}", figure1_xml) for i in range(3)])
        (name,) = private_tmp()
        assert executor.runtime_stats()["shard_bytes"] == os.path.getsize(
            os.path.join(tempfile.gettempdir(), name)
        )
        executor.close()
        assert private_tmp() == []

    def test_gc_finalizer_unlinks_the_temp_shard(
        self, lexicon, figure1_xml, private_tmp
    ):
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=2, oversubscribe=True
        )
        executor.run([(f"doc-{i}", figure1_xml) for i in range(3)])
        assert len(private_tmp()) == 1
        del executor  # dropped without close()
        gc.collect()
        assert private_tmp() == []

    def test_second_batch_reuses_the_shard_without_rewriting(
        self, lexicon, figure1_xml, private_tmp
    ):
        docs = [(f"doc-{i}", figure1_xml) for i in range(3)]
        with BatchExecutor(
            lexicon, XSDFConfig(), workers=2, oversubscribe=True
        ) as executor:
            executor.run(docs)
            (name,) = private_tmp()
            path = os.path.join(tempfile.gettempdir(), name)
            before = os.stat(path)
            executor.run(docs)
            after = os.stat(path)
            assert private_tmp() == [name]
            assert (after.st_ino, after.st_mtime_ns) == (
                before.st_ino, before.st_mtime_ns
            )

    def test_worker_respawn_reattaches_the_same_path(
        self, lexicon, figure1_xml, private_tmp
    ):
        injector = FaultInjector(
            seed=42, specs=[FaultSpec.exiting(match="victim", max_attempt=1)]
        )
        metrics = MetricsRegistry()
        docs = [("victim", figure1_xml)] + [
            (f"doc-{i}", figure1_xml) for i in range(3)
        ]
        with BatchExecutor(
            lexicon, XSDFConfig(), workers=2, metrics=metrics,
            injector=injector, doc_timeout=1.0, backoff_base=0.0,
            oversubscribe=True,
        ) as executor:
            records = executor.run(docs)
            assert executor.runtime_stats()["generation"] >= 2
            assert len(private_tmp()) == 1  # never rewritten per spawn
        assert all(r.ok for r in records), [r.error for r in records]
        # A failed attach would have degraded the respawned workers.
        assert metrics.counter("degrade_packed_decode") == 0
        assert private_tmp() == []

    def test_unwritable_shard_falls_back_to_the_network_walk(
        self, lexicon, figure1_xml, private_tmp, monkeypatch
    ):
        def _disk_full(index, path, fingerprint=None):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("repro.runtime.executor.write_shard", _disk_full)
        docs = [(f"doc-{i}", figure1_xml) for i in range(3)]
        metrics = MetricsRegistry()
        with BatchExecutor(
            lexicon, XSDFConfig(), workers=2, metrics=metrics,
            oversubscribe=True,
        ) as executor:
            parallel = [r.to_json_line() for r in executor.run(docs)]
        (event,) = metrics.events("pool_fault")
        assert event["kind"] == "shard_write"
        assert private_tmp() == []  # the half-made temp file is unlinked
        serial = BatchExecutor(lexicon, XSDFConfig(), workers=1)
        assert parallel == [r.to_json_line() for r in serial.run(docs)]

    def test_shard_attached_index_ships_its_own_path(
        self, lexicon, figure1_xml, private_tmp, tmp_path
    ):
        shard = tmp_path / "own.rxpd"
        write_shard(PackedIndex(lexicon), shard)
        index = PackedIndex.from_mmap(shard)
        with BatchExecutor(
            lexicon, XSDFConfig(), workers=2, index=index,
            oversubscribe=True,
        ) as executor:
            executor.run([(f"doc-{i}", figure1_xml) for i in range(3)])
            assert private_tmp() == []  # no temp shard written
            stats = executor.runtime_stats()
        index.release_shared()
        assert stats["shard_bytes"] == os.path.getsize(shard)
        assert shard.exists()  # close() never unlinks a shard it did not write

    def test_temp_shard_is_named_after_the_parent_pid(
        self, lexicon, figure1_xml, private_tmp
    ):
        with BatchExecutor(
            lexicon, XSDFConfig(), workers=2, oversubscribe=True
        ) as executor:
            executor.run([(f"doc-{i}", figure1_xml) for i in range(3)])
            (name,) = private_tmp()
        assert name.startswith(f"repro-index-{os.getpid()}-")

    def test_sweep_unlinks_a_dead_pids_shard(self, tmp_path):
        orphan = tmp_path / f"repro-index-{_dead_pid()}-abc.rxpd"
        orphan.write_bytes(b"RXPD")
        assert sweep_orphan_shards(str(tmp_path)) == [str(orphan)]
        assert not orphan.exists()

    def test_sweep_keeps_a_live_pids_shard(self, tmp_path):
        live = tmp_path / f"repro-index-{os.getpid()}-abc.rxpd"
        live.write_bytes(b"RXPD")
        unrelated = tmp_path / "repro-index-notapid-abc.rxpd"
        unrelated.write_bytes(b"RXPD")
        assert sweep_orphan_shards(str(tmp_path)) == []
        assert live.exists() and unrelated.exists()

    def test_shipping_sweeps_orphans_before_writing(
        self, lexicon, figure1_xml, private_tmp, tmp_path
    ):
        """A SIGKILLed parent's leftover is swept by the next executor."""
        orphan = tmp_path / f"repro-index-{_dead_pid()}-old.rxpd"
        orphan.write_bytes(b"RXPD")
        live = tmp_path / f"repro-index-{os.getppid()}-live.rxpd"
        live.write_bytes(b"RXPD")
        with BatchExecutor(
            lexicon, XSDFConfig(), workers=2, oversubscribe=True
        ) as executor:
            executor.run([(f"doc-{i}", figure1_xml) for i in range(3)])
            assert not orphan.exists()
            assert len(private_tmp()) == 2  # the live file + our own
        assert private_tmp() == [live.name]


class TestWorkerCrashRecovery:
    def test_worker_exit_respawns_and_requeues(self, lexicon, figure1_xml):
        """A hard worker crash must not lose or re-blame documents."""
        injector = FaultInjector(
            seed=42, specs=[FaultSpec.exiting(match="victim", max_attempt=1)]
        )
        metrics = MetricsRegistry()
        with BatchExecutor(
            lexicon,
            XSDFConfig(),
            workers=2,
            metrics=metrics,
            injector=injector,
            doc_timeout=1.0,
            backoff_base=0.0,
            oversubscribe=True,
        ) as executor:
            docs = [(f"doc-{i}", figure1_xml) for i in range(3)]
            docs.insert(1, ("victim", figure1_xml))
            records = executor.run(docs)
            assert [r.name for r in records] == [name for name, _ in docs]
            assert all(r.ok for r in records), [r.error for r in records]
            by_name = {r.name: r for r in records}
            victim = by_name["victim"].outcome
            assert victim is not None
            assert victim.status == "retried"
            assert victim.attempts >= 2
            # Bystanders are blameless: they succeeded on attempt 1.
            for name, _ in docs:
                if name == "victim":
                    continue
                outcome = by_name[name].outcome
                assert outcome is not None and outcome.attempts == 1
            stats = executor.runtime_stats()
            assert stats["worker_respawns"] >= 1
            assert stats["generation"] >= 2
            # Survivors are byte-identical to an untouched serial run.
            serial = BatchExecutor(lexicon, XSDFConfig(), workers=1)
            assert [r.to_json_line() for r in records] == [
                r.to_json_line() for r in serial.run(docs)
            ]
        assert metrics.counter("worker_respawns") >= 1

    def test_exit_fault_demotes_to_raise_in_parent(self, lexicon, figure1_xml):
        """Serial runs survive an ``exit`` schedule (no process suicide)."""
        injector = FaultInjector(
            seed=7, specs=[FaultSpec.exiting(match="victim", max_attempt=1)]
        )
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=1, injector=injector,
            backoff_base=0.0,
        )
        records = executor.run([("victim", figure1_xml)])
        assert records[0].ok
        assert records[0].outcome is not None
        assert records[0].outcome.status == "retried"


_HASHSEED_SCRIPT = """
import sys
from repro import XSDFConfig
from repro.runtime import BatchExecutor
from repro.semnet import default_lexicon
from tests.conftest import FIGURE1_XML

workers = int(sys.argv[1])
with BatchExecutor(
    default_lexicon(), XSDFConfig(), workers=workers, oversubscribe=True
) as executor:
    docs = [(f"doc-{i}", FIGURE1_XML) for i in range(3)]
    for record in executor.run(docs):
        sys.stdout.write(record.to_json_line() + "\\n")
"""


@pytest.mark.slow
class TestHashSeedIndependence:
    def test_serial_equals_pool_across_hash_seeds(self):
        """{workers 1, 2} x {PYTHONHASHSEED 0, 345} -> one output.

        Hash randomization is frozen at interpreter start, so the only
        honest way to vary it is fresh subprocesses.
        """
        outputs = set()
        for workers in (1, 2):
            for seed in ("0", "345"):
                env = dict(os.environ)
                env["PYTHONHASHSEED"] = seed
                env["PYTHONPATH"] = os.pathsep.join(
                    p for p in ("src", env.get("PYTHONPATH", "")) if p
                )
                proc = subprocess.run(
                    [sys.executable, "-c", _HASHSEED_SCRIPT, str(workers)],
                    capture_output=True,
                    text=True,
                    env=env,
                    timeout=300,
                    cwd=os.path.dirname(
                        os.path.dirname(os.path.dirname(__file__))
                    ),
                )
                assert proc.returncode == 0, proc.stderr
                outputs.add(proc.stdout)
        assert len(outputs) == 1
