"""Seeded workload inputs and the reference oracle.

Every document comes from ``repro.datasets.generate_test_corpus`` over a
range of corpus seeds derived from the benchmark's workload seed, so the
same ``--seed`` always yields the same inputs and another seed yields
different ones.  Documents are written under a work directory inside
the checkout and named by their path relative to it; those names are
the ``name`` field of every JSONL record, so a served record line and
the batch reference line for the same document are byte-comparable.

The reference is the network-walk oracle, ``repro batch --no-index
--workers 1``: no index, no pool — none of the machinery the measured
runs exercise.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

#: Paper corpus: corpora per run (60 documents each, all ten datasets).
PAPER_CORPORA = 4
#: Serve population: group 2-4 documents (no Shakespeare, as served
#: traffic is short documents).
SERVE_POPULATION = 1050


@dataclass
class Inputs:
    """Named documents plus the facts a result must record about them."""

    docs: list[tuple[str, str]]
    corpus_seeds: list[int]

    def describe(self) -> dict:
        """Document count, bytes, Shakespeare share, distinct count."""
        n = len(self.docs)
        n_bytes = sum(len(xml.encode("utf-8")) for _, xml in self.docs)
        shakespeare = sum(
            len(xml.encode("utf-8")) for name, xml in self.docs
            if "/shakespeare/" in name
        )
        distinct = len({hashlib.sha256(xml.encode()).digest()
                        for _, xml in self.docs})
        return {
            "documents": n,
            "bytes": n_bytes,
            "shakespeare_doc_share": round(
                sum(1 for name, _ in self.docs if "/shakespeare/" in name)
                / n, 4),
            "shakespeare_byte_share": round(shakespeare / n_bytes, 4),
            "distinct_documents": distinct,
            "corpus_seeds": [self.corpus_seeds[0], self.corpus_seeds[-1]],
        }


def _write(work: Path, name: str, xml: str) -> None:
    path = work / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(xml, encoding="utf-8")


def paper_inputs(seed: int, work: Path) -> Inputs:
    """``PAPER_CORPORA`` whole paper corpora (all datasets, all groups)."""
    from repro.datasets import generate_test_corpus

    seeds = [100_000 + seed * 100 + k for k in range(PAPER_CORPORA)]
    docs = []
    for corpus_seed in seeds:
        for doc in generate_test_corpus(corpus_seed):
            name = f"c{corpus_seed}/{doc.dataset}/{doc.name}.xml"
            _write(work, name, doc.xml)
            docs.append((name, doc.xml))
    docs.sort()
    return Inputs(docs, seeds)


def serve_inputs(seed: int, work: Path) -> Inputs:
    """``SERVE_POPULATION`` distinct group 2-4 documents."""
    from repro.datasets import generate_test_corpus

    seeds: list[int] = []
    docs: list[tuple[str, str]] = []
    seen: set[bytes] = set()
    corpus_seed = 500_000 + seed * 100
    while len(docs) < SERVE_POPULATION:
        seeds.append(corpus_seed)
        for doc in generate_test_corpus(corpus_seed):
            digest = hashlib.sha256(doc.xml.encode()).digest()
            if doc.group == 1 or digest in seen:
                continue
            seen.add(digest)
            name = f"p{corpus_seed}/{doc.dataset}/{doc.name}.xml"
            _write(work, name, doc.xml)
            docs.append((name, doc.xml))
            if len(docs) == SERVE_POPULATION:
                break
        corpus_seed += 1
    docs.sort()
    return Inputs(docs, seeds)


def reference_lines(work: Path, names: list[str]) -> dict[str, bytes]:
    """Oracle record line per document name (``--no-index --workers 1``).

    The documents are dealt round-robin to ``nproc`` oracle processes
    running side by side, so the reference costs one share of the wall.
    """
    from procs import Child

    shares = max(1, len(os.sched_getaffinity(0)))
    jobs = []
    for k in range(shares):
        out = work / f"reference{k}.jsonl"
        proc = Child(
            ["batch", *names[k::shares], "--no-index", "--workers", "1",
             "--out", str(out)],
            cwd=work,
        )
        jobs.append((proc, out))
    lines: dict[str, bytes] = {}
    for proc, out in jobs:
        run = proc.wait_run()
        if run.code != 0:
            raise SystemExit(f"reference oracle exited {run.code}")
        lines.update(lines_by_name(out))
    return lines


def lines_by_name(path: os.PathLike) -> dict[str, bytes]:
    """JSONL file -> {record name: raw line without newline}."""
    import json

    lines = {}
    with open(path, "rb") as handle:
        for raw in handle:
            line = raw.rstrip(b"\n")
            lines[json.loads(line)["name"]] = line
    return lines
