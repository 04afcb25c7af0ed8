"""Golden byte-identity gate over the paper corpus.

``repro batch`` over the 60-document ``repro corpus`` export, at the
default configuration, must keep producing the exact JSONL this digest
was taken from.  Every performance layer (index, pruning, memo, intern
tables, worker pool) claims bit-identical output; this is the
end-to-end check of that claim, for the serial default, the network
walk (``--no-index``) and the pool (``--workers 2``).
"""

from __future__ import annotations

import hashlib
import io

import pytest

from repro.cli import main

#: sha256 of ``repro batch 'corpus/**/*.xml' --out out.jsonl`` run from
#: the directory holding a default-seed ``repro corpus corpus`` export.
GOLDEN_SHA256 = (
    "7d49d0d1fd24f689cb8797803c05e4fc3dcd3e7ad4bcb50e32db99b169207ccb"
)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    assert main(["corpus", str(root / "corpus")], out=io.StringIO()) == 0
    return root


@pytest.mark.parametrize(
    "flags", [[], ["--no-index"], ["--workers", "2"]],
    ids=["default", "no-index", "workers-2"],
)
def test_corpus_jsonl_matches_golden_digest(corpus_dir, monkeypatch, flags):
    # Record names are the paths as globbed, so run from the export's
    # parent exactly as the digest was taken.
    monkeypatch.chdir(corpus_dir)
    code = main(
        ["batch", "corpus/**/*.xml", "--out", "out.jsonl", *flags],
        out=io.StringIO(),
    )
    assert code == 0
    digest = hashlib.sha256((corpus_dir / "out.jsonl").read_bytes())
    assert digest.hexdigest() == GOLDEN_SHA256
