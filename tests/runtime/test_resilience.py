"""Fault-isolated batch pipeline: retries, breaker, timeouts, ladder.

The contract under test, end to end: a batch survives injected chaos
with structured per-document outcomes, and **every document that
succeeds under faults is byte-identical to a fault-free run** (the
chaos parity gate mirrored by the CI chaos job).  The degradation
ladder is tested at the XSDF level with the faults module's test
doubles: each rung swap changes counters, never scores.
"""

from __future__ import annotations

import pytest

from repro import XSDF, XSDFConfig
from repro.runtime import (
    BatchAbortError,
    BatchExecutor,
    CircuitBreaker,
    DocOutcome,
    FaultInjector,
    FaultSpec,
    MetricsRegistry,
    PackedIndex,
    RetryPolicy,
)
from repro.runtime import executor as executor_module
from repro.runtime.faults import BrokenMemo, FaultyKernel
from repro.runtime.resilience import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_RETRIED,
)


def _docs(corpus, n):
    docs = []
    for dataset in corpus.datasets():
        docs.append(corpus.by_dataset(dataset)[0])
        if len(docs) == n:
            break
    return [(d.name, d.xml) for d in docs]


def _lines(records):
    return {r.name: r.to_json_line() for r in records}


class TestRetryPolicy:
    def test_allows_counts_redispatches(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.allows(1) and policy.allows(2)
        assert not policy.allows(3)
        assert not RetryPolicy(max_retries=0).allows(1)

    def test_delay_doubles_and_caps(self):
        policy = RetryPolicy(backoff_base=0.5, backoff_cap=2.0)
        assert policy.delay(1) == 0.5
        assert policy.delay(2) == 1.0
        assert policy.delay(3) == 2.0
        assert policy.delay(9) == 2.0  # capped

    def test_zero_base_means_instant_retry(self):
        assert RetryPolicy(backoff_base=0.0).delay(5) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-0.1)


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3)
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert not breaker.tripped
        assert breaker.record_failure()  # the tripping failure
        assert breaker.tripped
        assert breaker.trips == 1

    def test_success_resets_the_streak(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert not breaker.tripped

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)


class TestDocOutcome:
    def test_ok_property(self):
        assert DocOutcome(name="d").ok
        assert DocOutcome(name="d", status=STATUS_RETRIED).ok
        assert not DocOutcome(name="d", status=STATUS_FAILED).ok

    def test_to_dict_omits_empty_fields(self):
        assert DocOutcome(name="d").to_dict() == {
            "name": "d", "status": STATUS_OK, "attempts": 1,
        }
        full = DocOutcome(
            name="d", status=STATUS_FAILED, attempts=3, stage="parse",
            error_type="XMLError", error="XMLError: boom",
            degradations=("index_downgrades",),
        ).to_dict()
        assert full["stage"] == "parse"
        assert full["degradations"] == ["index_downgrades"]


class TestSerialRetries:
    def test_flaky_document_is_retried_bit_identically(
        self, lexicon, figure1_xml
    ):
        metrics = MetricsRegistry()
        baseline = BatchExecutor(lexicon, XSDFConfig(), workers=1)
        base_records = baseline.run([("doc", figure1_xml)])
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=1, backoff_base=0.0,
            metrics=metrics,
            injector=FaultInjector(0, [FaultSpec.flaky(fail_attempts=1)]),
        )
        records = executor.run([("doc", figure1_xml)])
        assert records[0].ok
        outcome = records[0].outcome
        assert outcome.status == STATUS_RETRIED
        assert outcome.attempts == 2
        # The retried record's JSONL is byte-identical to fault-free.
        assert records[0].to_json_line() == base_records[0].to_json_line()
        report = metrics.report()
        assert report["counters"]["retries"] == 1
        assert report["counters"]["outcome_retried"] == 1
        (fault_event,) = metrics.events("fault")
        assert fault_event["doc"] == "doc"

    def test_permanent_fault_is_not_retried(self, lexicon, figure1_xml):
        metrics = MetricsRegistry()
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=1, backoff_base=0.0,
            metrics=metrics,
            injector=FaultInjector(
                0, [FaultSpec.raising(transient=False)]
            ),
        )
        records = executor.run([("doc", figure1_xml)])
        outcome = records[0].outcome
        assert not records[0].ok
        assert outcome.status == STATUS_FAILED
        assert outcome.attempts == 1  # permanent -> no redispatch
        assert outcome.stage == "inject"
        assert metrics.report()["counters"].get("retries", 0) == 0
        (failed_event,) = metrics.events("doc_failed")
        assert failed_event["stage"] == "inject"

    def test_exhausted_retries_fail_with_attempt_count(
        self, lexicon, figure1_xml
    ):
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=1, backoff_base=0.0,
            max_retries=2,
            injector=FaultInjector(0, [FaultSpec.raising()]),
        )
        records = executor.run([("doc", figure1_xml)])
        outcome = records[0].outcome
        assert outcome.status == STATUS_FAILED
        assert outcome.attempts == 3  # max_retries + 1 runs

    def test_backoff_sleeps_between_attempts(
        self, lexicon, figure1_xml, monkeypatch
    ):
        naps = []
        monkeypatch.setattr(executor_module.time, "sleep", naps.append)
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=1, backoff_base=0.1,
            max_retries=2,
            injector=FaultInjector(0, [FaultSpec.raising()]),
        )
        executor.run([("doc", figure1_xml)])
        assert naps == [0.1, 0.2]  # doubling schedule

    def test_on_error_fail_aborts_with_partial_records(
        self, lexicon, figure1_xml
    ):
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=1, backoff_base=0.0,
            on_error="fail",
            injector=FaultInjector(
                0, [FaultSpec.raising(match="bad", transient=False)]
            ),
        )
        docs = [("good", figure1_xml), ("bad", figure1_xml),
                ("never-ran", figure1_xml)]
        with pytest.raises(BatchAbortError) as excinfo:
            executor.run(docs)
        names = [r.name for r in excinfo.value.records]
        assert names == ["good", "bad"]  # partials survive the abort

    def test_bad_on_error_rejected(self, lexicon):
        with pytest.raises(ValueError):
            BatchExecutor(lexicon, on_error="explode")
        with pytest.raises(ValueError):
            BatchExecutor(lexicon, doc_timeout=0.0)


class TestChaosParity:
    """The gate the CI chaos job replays: survivors are bit-identical."""

    def test_mixed_schedule_with_workers(self, lexicon, corpus):
        docs = _docs(corpus, 6)
        names = [name for name, _ in docs]
        baseline = _lines(
            BatchExecutor(lexicon, XSDFConfig(), workers=1).run(docs)
        )
        metrics = MetricsRegistry()
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=2, backoff_base=0.0,
            metrics=metrics, oversubscribe=True,
            injector=FaultInjector(42, [
                FaultSpec.flaky(match=names[1], fail_attempts=1),
                FaultSpec.raising(match=names[3], transient=False),
            ]),
        )
        records = executor.run(docs)
        assert [r.name for r in records] == names  # input order kept
        by_name = {r.name: r for r in records}
        assert not by_name[names[3]].ok  # the permanent casualty
        assert by_name[names[3]].outcome.stage == "inject"
        assert by_name[names[1]].outcome.status == STATUS_RETRIED
        for name, record in by_name.items():
            if record.ok:
                assert record.to_json_line() == baseline[name], name
        assert metrics.report()["counters"]["outcome_failed"] == 1

    def test_corrupt_packed_payload_degrades_workers_with_parity(
        self, lexicon, corpus
    ):
        docs = _docs(corpus, 4)
        baseline = _lines(
            BatchExecutor(lexicon, XSDFConfig(), workers=1).run(docs)
        )
        metrics = MetricsRegistry()
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=2, metrics=metrics,
            oversubscribe=True,  # exercise the real pool on 1-CPU hosts
            injector=FaultInjector(7, [FaultSpec.corrupt_packed()]),
        )
        records = executor.run(docs)
        assert all(r.ok for r in records)
        assert _lines(records) == baseline
        # Every worker attached the corrupted temp shard and degraded one rung.
        counters = metrics.report()["counters"]
        assert counters.get("degrade_packed_decode", 0) >= 1


class TestCircuitBreakerPath:
    def test_persistent_submit_failures_trip_to_serial(
        self, lexicon, figure1_xml, monkeypatch
    ):
        """apply_async blowing up every wave must end in a serial drain."""

        class _BrokenSubmitPool:
            def __init__(self, *args, **kwargs):
                init = kwargs.get("initializer")
                if init is not None:
                    init(*kwargs.get("initargs", ()))

            def apply_async(self, fn, args):
                raise RuntimeError("pool lost its workers")

            def close(self):
                pass

            def join(self):
                pass

        import multiprocessing

        monkeypatch.setattr(multiprocessing, "Pool", _BrokenSubmitPool)
        metrics = MetricsRegistry()
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=2, metrics=metrics,
            breaker_threshold=3, oversubscribe=True,
        )
        docs = [("a", figure1_xml), ("b", figure1_xml)]
        records = executor.run(docs)
        assert all(r.ok for r in records)
        report = metrics.report()
        assert report["counters"]["breaker_trips"] == 1
        assert len(metrics.events("pool_fault")) == 3  # one per strike
        assert metrics.events("breaker_tripped")
        # Serial-drain output is byte-identical to a plain serial run.
        serial = BatchExecutor(lexicon, XSDFConfig(), workers=1)
        assert [r.to_json_line() for r in records] == \
            [r.to_json_line() for r in serial.run(docs)]


class TestDocTimeout:
    def test_straggler_is_killed_and_redispatched(self, lexicon, corpus):
        docs = _docs(corpus, 3)
        slow_name = docs[0][0]
        baseline = _lines(
            BatchExecutor(lexicon, XSDFConfig(), workers=1).run(docs)
        )
        metrics = MetricsRegistry()
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=2, backoff_base=0.0,
            doc_timeout=0.75, metrics=metrics, oversubscribe=True,
            injector=FaultInjector(0, [
                # Slow-then-recover: only the first dispatch stalls.
                FaultSpec.slow(match=slow_name, delay_s=30.0, max_attempt=1),
            ]),
        )
        records = executor.run(docs)
        assert all(r.ok for r in records)
        assert _lines(records) == baseline  # parity after the re-dispatch
        by_name = {r.name: r for r in records}
        assert by_name[slow_name].outcome.status == STATUS_RETRIED
        assert by_name[slow_name].outcome.attempts >= 2
        report = metrics.report()
        assert report["counters"]["doc_timeouts"] >= 1
        assert metrics.events("doc_timeout")

    def test_timeout_without_retries_fails_with_stage(self, lexicon, corpus):
        docs = _docs(corpus, 2)
        slow_name = docs[1][0]
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=2, backoff_base=0.0,
            doc_timeout=0.75, max_retries=0, oversubscribe=True,
            injector=FaultInjector(0, [
                FaultSpec.slow(match=slow_name, delay_s=30.0),
            ]),
        )
        records = executor.run(docs)
        by_name = {r.name: r for r in records}
        outcome = by_name[slow_name].outcome
        assert outcome.status == STATUS_FAILED
        assert outcome.stage == "timeout"
        assert by_name[docs[0][0]].ok  # the fast doc is unaffected


class TestDegradationLadder:
    """Each rung swap is bit-identical; only counters and rung change."""

    def test_packed_kernel_fault_downgrades_to_dict_rung(
        self, lexicon, figure1_xml
    ):
        baseline = XSDF(lexicon, XSDFConfig()).disambiguate_document(
            figure1_xml
        )
        metrics = MetricsRegistry()
        faulty = FaultyKernel(PackedIndex(lexicon), fail_calls=1)
        xsdf = XSDF(lexicon, XSDFConfig(), index=faulty, metrics=metrics)
        assert xsdf.index_rung == "packed"
        result = xsdf.disambiguate_document(figure1_xml)
        assert xsdf.index_rung == "dict"
        assert xsdf.degrade_stats["index_downgrades"] == 1
        assert result.to_dict() == baseline.to_dict()
        (event,) = metrics.events("degrade")
        assert event["kind"] == "index_downgrade"
        assert event["rung"] == "dict"

    def test_ladder_walks_all_the_way_to_the_network(
        self, lexicon, figure1_xml
    ):
        baseline = XSDF(lexicon, XSDFConfig()).disambiguate_document(
            figure1_xml
        )
        xsdf = XSDF(lexicon, XSDFConfig(), index=PackedIndex(lexicon))
        assert xsdf._downgrade_index()
        assert xsdf.index_rung == "dict"
        assert xsdf._downgrade_index()
        assert xsdf.index_rung == "network"
        assert not xsdf._downgrade_index()  # bottom of the ladder
        result = xsdf.disambiguate_document(figure1_xml)
        assert result.to_dict() == baseline.to_dict()

    def test_memo_fault_disables_memo_with_parity(
        self, lexicon, figure1_xml
    ):
        baseline = XSDF(lexicon, XSDFConfig()).disambiguate_document(
            figure1_xml
        )
        xsdf = XSDF(lexicon, XSDFConfig())
        assert xsdf.sphere_memo is not None
        xsdf.sphere_memo = BrokenMemo(xsdf.sphere_memo, fail_calls=1)
        result = xsdf.disambiguate_document(figure1_xml)
        assert xsdf.sphere_memo is None  # memoized -> fresh rung
        assert xsdf.degrade_stats["memo_disabled"] == 1
        assert result.to_dict() == baseline.to_dict()

    def test_prune_fault_falls_back_to_exhaustive(
        self, lexicon, figure1_xml, monkeypatch
    ):
        xsdf = XSDF(lexicon, XSDFConfig())
        assert xsdf._prune

        def _boom(*args, **kwargs):
            raise RuntimeError("injected upper_bound fault")

        monkeypatch.setattr(xsdf._similarity, "upper_bound", _boom)
        result = xsdf.disambiguate_document(figure1_xml)
        assert not xsdf._prune
        assert xsdf.degrade_stats["prune_disabled"] == 1
        # The exhaustive rung equals a prune=False run exactly (pruned
        # runs only omit provably-losing candidates from the payload).
        baseline = XSDF(
            lexicon, XSDFConfig(prune=False)
        ).disambiguate_document(figure1_xml)
        assert result.to_dict() == baseline.to_dict()
