"""Per-XSDF intern tables: identity, boundedness, reporting.

Parity of the interned scorer with the per-occurrence oracle lives in
the hypothesis suites (``test_prune_parity_property.py``,
``tests/similarity/test_index_parity_property.py``); this file pins the
tables' own contracts — one shared inventory per distinct label, every
table bounded by ``intern_size`` under a stream of unique labels, and
the counters surfaced through ``intern_tables()`` / ``runtime_stats()``.
"""

from __future__ import annotations

import pytest

from repro import XSDF, XSDFConfig
from repro.bounded import BoundedTable
from repro.core import ambiguity as ambiguity_module
from repro.core import framework as framework_module
from repro.core.ambiguity import ambiguity_degree, select_targets
from repro.core.intern import ScoreRows, SenseIntern
from repro.datasets import generate_test_corpus
from repro.linguistics.pipeline import LinguisticPipeline
from repro.runtime import BatchExecutor, MetricsRegistry

#: Tables every XSDF reports, by metrics name.
TABLES = {
    "intern_labels", "sense_scores", "sense_bounds",
    "pipeline_words", "pipeline_labels",
}


def _unique_label_doc(start: int, n: int) -> str:
    """``n`` fresh unknown and compound labels next to known context."""
    parts = []
    for i in range(start, start + n):
        parts.append(
            f"<zq{i}><Movie_zq{i}>star plot zq{i}</Movie_zq{i}>"
            f"<zq{i}_title>director</zq{i}_title><star>kelly</star></zq{i}>"
        )
    return f"<films>{''.join(parts)}</films>"


class TestBoundedTable:
    def test_flushes_when_full_and_counts(self):
        table = BoundedTable(maxsize=2)
        table.put("a", 1)
        table.put("b", 2)
        table.put("c", 3)  # full: flush, then insert
        assert table.data == {"c": 3}
        table.hits, table.misses = 3, 1
        assert table.stats() == {
            "size": 1, "maxsize": 2, "hits": 3, "misses": 1,
            "evictions": 2, "hit_rate": 0.75,
        }

    def test_unbounded_and_validation(self):
        table = BoundedTable(maxsize=None)
        for i in range(100):
            table.put(i, i)
        assert len(table) == 100
        with pytest.raises(ValueError):
            BoundedTable(maxsize=0)


class TestScoreRows:
    def test_bound_covers_all_rows_and_keeps_the_live_row(self):
        rows = ScoreRows(maxsize=3)
        keys = [object() for _ in range(4)]
        row_a = rows.row(("a",))
        rows.store(("a",), row_a, keys[0], 0.1)
        row_b = rows.row(("b",))
        rows.store(("b",), row_b, keys[1], 0.2)
        rows.store(("b",), row_b, keys[2], 0.3)
        rows.store(("b",), row_b, keys[3], 0.4)  # full: flush first
        assert len(rows) == 1
        assert row_a == {}
        assert rows.row(("b",)) is row_b
        assert row_b == {keys[3]: 0.4}
        assert rows.stats()["evictions"] == 3


class TestSenseIntern:
    def test_one_inventory_per_distinct_label(self, lexicon):
        xsdf = XSDF(lexicon, XSDFConfig())
        tree = xsdf.build_tree(
            "<films><star>kelly</star><star>stewart</star></films>"
        )
        stars = [node for node in tree if node.label == "star"]
        intern = SenseIntern(lexicon, maxsize=None)
        first, second = (intern.intern(node) for node in stars)
        assert first is second
        assert first.sense_ids
        assert intern.candidates(stars[0]) is intern.candidates(stars[1])
        assert intern.table.stats()["hits"] == 3


class TestBoundedness:
    def test_unique_labels_never_grow_a_table_past_the_bound(self, lexicon):
        bound = 16
        xsdf = XSDF(lexicon, XSDFConfig(), intern_size=bound)
        assert set(xsdf.intern_tables()) == TABLES
        streamed = 0
        while streamed < bound * 4:
            xsdf.disambiguate_document(_unique_label_doc(streamed, 8))
            streamed += 8
            for name, table in xsdf.intern_tables().items():
                assert len(table) <= bound, name
        rows = xsdf._tables.scores
        assert sum(len(row) for row in rows._rows.values()) == len(rows)
        stats = {n: t.stats() for n, t in xsdf.intern_tables().items()}
        assert stats["intern_labels"]["evictions"] > 0
        assert stats["pipeline_labels"]["evictions"] > 0

    def test_tiny_tables_do_not_change_results(self, lexicon):
        corpus = generate_test_corpus()
        docs = [corpus.by_dataset(ds)[0].xml for ds in corpus.datasets()]
        roomy = XSDF(lexicon, XSDFConfig())
        tiny = XSDF(lexicon, XSDFConfig(), intern_size=3)
        for xml in docs[:4]:
            assert (
                tiny.disambiguate_document(xml).to_dict()
                == roomy.disambiguate_document(xml).to_dict()
            )


class TestReporting:
    def test_runtime_stats_and_metrics_report_intern_tables(
        self, lexicon, figure1_xml
    ):
        metrics = MetricsRegistry()
        executor = BatchExecutor(
            lexicon, XSDFConfig(), workers=1, cache_size=64, metrics=metrics
        )
        assert executor.runtime_stats()["intern"] == {}
        executor.run([("a", figure1_xml)])
        intern = executor.runtime_stats()["intern"]
        assert set(intern) == TABLES
        assert all(stats["maxsize"] == 64 for stats in intern.values())
        assert intern["intern_labels"]["size"] > 0
        assert intern["sense_scores"]["misses"] > 0
        caches = metrics.report()["caches"]
        assert TABLES <= set(caches)
        assert caches["sense_scores"] == intern["sense_scores"]

    def test_pool_workers_merge_intern_traffic_into_counters(
        self, lexicon, figure1_xml
    ):
        metrics = MetricsRegistry()
        with BatchExecutor(
            lexicon, XSDFConfig(), workers=2, oversubscribe=True,
            metrics=metrics,
        ) as executor:
            executor.run([(f"d{i}", figure1_xml) for i in range(4)])
        counters = metrics.report()["counters"]
        assert counters["intern_labels_misses"] > 0
        assert counters["sense_scores_misses"] > 0


class TestAmbiguityOncePerTarget:
    def test_selection_degrees_are_carried_to_assignments(
        self, lexicon, figure1_xml, monkeypatch
    ):
        xsdf = XSDF(lexicon, XSDFConfig(memo=False))
        tree = xsdf.build_tree(figure1_xml)
        degrees: list[float] = []
        targets = select_targets(tree, lexicon, degrees=degrees)
        assert degrees == [
            ambiguity_degree(node, tree, lexicon) for node in targets
        ]
        calls = []
        original = ambiguity_module.ambiguity_degree

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        for module in (ambiguity_module, framework_module):
            monkeypatch.setattr(module, "ambiguity_degree", counting)
        result = xsdf.disambiguate_tree(tree)
        assert len(calls) == len(targets)
        assert [a.ambiguity for a in result.assignments] == [
            d for node, d in zip(targets, degrees)
            if node.index in {a.node_index for a in result.assignments}
        ]


class TestPipelineMemo:
    def test_memoized_labels_are_fresh_equal_lists(self):
        pipeline = LinguisticPipeline(known={"first name"}.__contains__)
        first = pipeline.process_label("FirstName")
        first.append("mutated")
        assert pipeline.process_label("FirstName") == ["first name"]
        assert pipeline.normalize_word("Movies") == "movies"
        assert pipeline.normalize_word("Movies") == "movies"
        tables = pipeline.memo_tables()
        assert tables["pipeline_labels"].stats()["hits"] == 1
        assert tables["pipeline_words"].stats()["hits"] == 1
