"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``disambiguate FILE``
    Run the full XSDF pipeline on an XML file and print either a
    per-node sense report (default) or the concept-annotated semantic
    XML tree (``--xml``).
``batch GLOB [GLOB ...]``
    Disambiguate a whole corpus of XML files through the cached,
    parallel runtime (:mod:`repro.runtime`): JSONL results to a file or
    stdout, optional metrics report (``--metrics-json``), optional
    cProfile hot-frame summary (``--profile``), packed index by default
    (``--dict-index`` for the dict-keyed one), exact pruning and sphere
    memoization on by default (``--no-prune``/``--no-memo``).  Failure
    policy via ``--on-error={fail,skip,quarantine}`` (abort with exit 2
    / record and continue / divert failed documents to a sidecar JSONL)
    with ``--max-retries`` and ``--doc-timeout`` controlling the
    resilience layer.
``serve``
    Run the long-lived disambiguation daemon (:mod:`repro.server`):
    the network loads and the packed index builds once, then
    ``POST /v1/disambiguate`` streams NDJSON annotations byte-identical
    to ``repro batch`` while the caches stay warm across requests.
    ``GET /healthz`` and ``GET /metrics`` expose readiness and the live
    metrics snapshot; ``--rate-limit``/``--max-concurrency``/
    ``--request-timeout`` bound admission, and SIGTERM drains
    gracefully (finish in-flight, refuse new connections, exit 0).
``pack SHARD``
    Write a network's packed index to an on-disk ``RXPD`` shard
    (:mod:`repro.runtime.store`): ``batch``/``serve`` then attach it
    read-only via ``mmap`` — no index build, no decode, and every
    attaching process shares the same physical pages through the OS
    page cache.  Pack the bundled lexicon, a ``--network`` JSON file,
    or a ``--synthetic N`` generated taxonomy; ``--verify`` re-opens
    the shard and checks the full body CRC.
``audit FILE``
    Print the ambiguity-degree ranking of the file's nodes — which
    nodes are worth disambiguating, before spending any effort.
``lexicon``
    Summary statistics of the bundled mini-WordNet, or the sense
    inventory of one word (``--word``).
``lint [PATH ...]``
    Run reprolint (:mod:`repro.devtools`) over files/directories
    (default ``src tests``): text or JSON findings, ``--rules`` filter,
    non-zero exit on any finding.

All pipeline knobs are exposed as flags (radius, approach, threshold,
weights, the strip-target-dimension extension).
"""

from __future__ import annotations

import argparse
import glob as globlib
import os
import sys

from . import __version__
from .core.ambiguity import rank_nodes
from .core.config import DisambiguationApproach, XSDFConfig
from .core.framework import XSDF
from .semnet import default_lexicon
from .similarity.combined import SimilarityWeights

_APPROACHES = {
    "concept": DisambiguationApproach.CONCEPT_BASED,
    "context": DisambiguationApproach.CONTEXT_BASED,
    "combined": DisambiguationApproach.COMBINED,
}


def _workers_arg(value: str) -> int:
    """Argparse type for ``--workers``: an integer or ``auto``.

    Range validation (``>= 1``) stays with the consumer so ``--workers
    0`` keeps its historical "workers must be >= 1" error instead of an
    argparse usage message.
    """
    from .runtime.pool import parse_workers

    try:
        return parse_workers(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XSDF: XML semantic disambiguation (EDBT 2015 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dis = sub.add_parser("disambiguate", help="disambiguate an XML file")
    dis.add_argument("file", help="path to the XML document")
    dis.add_argument("--radius", type=int, default=2,
                     help="sphere context radius d (default 2)")
    dis.add_argument("--approach", choices=sorted(_APPROACHES),
                     default="combined", help="disambiguation process")
    dis.add_argument("--threshold", type=float, default=0.0,
                     help="ambiguity threshold Thresh_Amb (default 0)")
    dis.add_argument("--weights", metavar="EDGE,NODE,GLOSS", default=None,
                     help="similarity weight mix, e.g. 1,1,1")
    dis.add_argument("--strip-target-dimension", action="store_true",
                     help="enable the context-vector bias fix (extension)")
    dis.add_argument("--structure-only", action="store_true",
                     help="ignore text values (structure-only mode)")
    dis.add_argument("--xml", action="store_true",
                     help="emit the semantic XML tree instead of a report")

    batch = sub.add_parser(
        "batch",
        help="disambiguate many XML files through the cached runtime",
    )
    batch.add_argument("patterns", nargs="+", metavar="GLOB",
                       help="file paths or glob patterns of XML documents")
    batch.add_argument("--workers", type=_workers_arg, default=1,
                       metavar="N|auto",
                       help="worker processes (1 = serial, default; "
                            "'auto' = one per CPU usable by this "
                            "process, affinity-aware)")
    batch.add_argument("--chunk-size", type=int, default=None,
                       help="documents per worker task (default: auto)")
    batch.add_argument("--out", default=None,
                       help="write JSONL results here (default: stdout)")
    batch.add_argument("--metrics-json", "--metrics", dest="metrics_json",
                       default=None, metavar="PATH",
                       help="write the per-stage counter/timer/cache "
                            "snapshot (including memo and pruning "
                            "counters) as JSON to PATH for trend "
                            "tracking across runs")
    batch.add_argument("--no-memo", action="store_true",
                       help="disable cross-document sphere memoization "
                            "(results are bit-identical either way)")
    batch.add_argument("--no-prune", action="store_true",
                       help="disable exact candidate pruning (chosen "
                            "senses and scores are identical either "
                            "way; pruning omits provably-losing "
                            "candidates from per-node score tables)")
    batch.add_argument("--no-index", action="store_true",
                       help="disable the precomputed index and caches "
                            "(uncached baseline)")
    batch.add_argument("--dict-index", action="store_true",
                       help="use the dict-keyed SemanticIndex instead of "
                            "the packed flat-array index (same scores)")
    batch.add_argument("--profile", action="store_true",
                       help="profile the batch under cProfile and append "
                            "the hottest frames to the summary (parent "
                            "process only under --workers > 1)")
    batch.add_argument("--cache-size", type=int, default=None,
                       help="bound for the similarity caches "
                            "(default 65536)")
    batch.add_argument("--radius", type=int, default=2,
                       help="sphere context radius d (default 2)")
    batch.add_argument("--approach", choices=sorted(_APPROACHES),
                       default="combined", help="disambiguation process")
    batch.add_argument("--threshold", type=float, default=0.0,
                       help="ambiguity threshold Thresh_Amb (default 0)")
    batch.add_argument("--weights", metavar="EDGE,NODE,GLOSS", default=None,
                       help="similarity weight mix, e.g. 1,1,1")
    batch.add_argument("--strip-target-dimension", action="store_true",
                       help="enable the context-vector bias fix (extension)")
    batch.add_argument("--structure-only", action="store_true",
                       help="ignore text values (structure-only mode)")
    batch.add_argument("--on-error", choices=("fail", "skip", "quarantine"),
                       default="skip",
                       help="failure policy: fail = abort at the first "
                            "finally-failed document (exit 2, partial "
                            "results still written); skip = record the "
                            "failure and continue (default, exit 1 if "
                            "any failed); quarantine = divert failed "
                            "documents to a sidecar JSONL (exit 0)")
    batch.add_argument("--max-retries", type=int, default=2,
                       help="re-dispatch budget for transient per-"
                            "document faults (default 2; permanent "
                            "errors are never retried)")
    batch.add_argument("--doc-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-document wall-clock budget; a "
                            "straggler's worker pool is terminated and "
                            "the document re-dispatched (parallel runs "
                            "only)")
    batch.add_argument("--quarantine", default=None, metavar="PATH",
                       help="sidecar JSONL for quarantined documents "
                            "(default quarantine.jsonl; implies "
                            "nothing unless --on-error=quarantine)")
    batch.add_argument("--network", default=None, metavar="PATH",
                       help="disambiguate against a repro-semnet JSON "
                            "network instead of the bundled lexicon")
    batch.add_argument("--shard", default=None, metavar="RXPD",
                       help="attach the packed index from this RXPD "
                            "shard via mmap instead of building it "
                            "(requires --network; fingerprint-checked)")
    batch.add_argument("--registry", default=None, metavar="TOML",
                       help="a registry.toml manifest of domain "
                            "networks/shards (mutually exclusive with "
                            "--network/--shard)")
    batch.add_argument("--domain", default=None,
                       help="pin the registry domain to serve from "
                            "(default: coverage-routed over the "
                            "manifest's default + fallback domains)")
    batch.add_argument("--journal", default=None, metavar="PATH",
                       help="append each completed document to this "
                            "crash-safe outcome journal (WAL) as it "
                            "finishes; a killed run loses at most the "
                            "in-flight documents")
    batch.add_argument("--resume", action="store_true",
                       help="replay --journal before scoring: documents "
                            "the journal proves complete are re-emitted "
                            "byte-identically instead of re-scored "
                            "(requires --journal)")
    batch.add_argument("--chaos-seed", type=int, default=0, metavar="N",
                       help="seed for --chaos-fault schedules "
                            "(default 0)")
    batch.add_argument("--chaos-fault", action="append", default=None,
                       metavar="KIND[:MATCH[:RATE]]",
                       help="inject a seeded fault schedule (repeatable); "
                            "kinds: raise, slow, corrupt-packed, exit, "
                            "kill_midbatch, bitrot")

    pack = sub.add_parser(
        "pack",
        help="write a network's packed index to an RXPD shard file",
    )
    pack.add_argument("out", metavar="SHARD",
                      help="output shard path (conventionally .rxpd)")
    pack.add_argument("--network", default=None, metavar="PATH",
                      help="pack this repro-semnet JSON network "
                           "(default: the bundled lexicon)")
    pack.add_argument("--synthetic", type=int, default=None, metavar="N",
                      help="pack an N-concept generated synthetic "
                           "network instead")
    pack.add_argument("--seed", type=int, default=7,
                      help="synthetic generation seed (default 7)")
    pack.add_argument("--gloss-style", choices=("sphere", "local"),
                      default="local",
                      help="synthetic gloss synthesis: radius-2 "
                           "neighborhood sampling or the O(1) local "
                           "fast path (default local; --synthetic only)")
    pack.add_argument("--no-fingerprint", action="store_true",
                      help="skip stamping the source network's "
                           "fingerprint into the shard header")
    pack.add_argument("--verify", action="store_true",
                      help="re-open the shard and deep-verify the "
                           "body CRC after writing")

    serve = sub.add_parser(
        "serve",
        help="run the long-lived disambiguation HTTP daemon",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8750,
                       help="bind port (default 8750; 0 binds an "
                            "ephemeral port, announced on stderr)")
    serve.add_argument("--network", default=None, metavar="PATH",
                       help="serve a repro-semnet JSON network instead "
                            "of the bundled lexicon")
    serve.add_argument("--workers", type=_workers_arg, default=1,
                       metavar="N|auto",
                       help="worker processes per session's batch "
                            "executor (1 = serial, default; 'auto' = "
                            "one per usable CPU); pools persist "
                            "across requests")
    serve.add_argument("--max-concurrency", type=int, default=8,
                       help="disambiguation requests admitted at once; "
                            "excess requests get 503 + Retry-After "
                            "(default 8)")
    serve.add_argument("--rate-limit", type=float, default=0.0,
                       metavar="PER_S",
                       help="per-client token-bucket refill rate in "
                            "requests/s; over-budget clients get 429 + "
                            "Retry-After (default 0 = unlimited)")
    serve.add_argument("--burst", type=int, default=8,
                       help="token-bucket burst capacity per client "
                            "(default 8)")
    serve.add_argument("--max-body-bytes", type=int, default=None,
                       help="largest accepted request body; bigger "
                            "bodies get 413 (default 1 MiB)")
    serve.add_argument("--request-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-request wall-clock budget; over-budget "
                            "requests get a 504 timeout envelope "
                            "(default: unbounded)")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       metavar="SECONDS",
                       help="how long a SIGTERM drain waits for "
                            "in-flight requests before cancelling "
                            "stragglers (default 10)")
    serve.add_argument("--metrics-json", "--metrics", dest="metrics_json",
                       default=None, metavar="PATH",
                       help="flush the final metrics snapshot here on "
                            "shutdown (live snapshot: GET /metrics)")
    serve.add_argument("--dict-index", action="store_true",
                       help="use the dict-keyed SemanticIndex instead of "
                            "the packed flat-array index (same scores)")
    serve.add_argument("--cache-size", type=int, default=None,
                       help="bound for the similarity caches "
                            "(default 65536)")
    serve.add_argument("--no-memo", action="store_true",
                       help="disable cross-document sphere memoization "
                            "in the default session")
    serve.add_argument("--no-prune", action="store_true",
                       help="disable exact candidate pruning in the "
                            "default session")
    serve.add_argument("--radius", type=int, default=2,
                       help="default sphere context radius d "
                            "(overridable per request)")
    serve.add_argument("--approach", choices=sorted(_APPROACHES),
                       default="combined",
                       help="default disambiguation process "
                            "(overridable per request)")
    serve.add_argument("--threshold", type=float, default=0.0,
                       help="default ambiguity threshold Thresh_Amb")
    serve.add_argument("--weights", metavar="EDGE,NODE,GLOSS", default=None,
                       help="default similarity weight mix, e.g. 1,1,1")
    serve.add_argument("--strip-target-dimension", action="store_true",
                       help="enable the context-vector bias fix by "
                            "default (extension)")
    serve.add_argument("--structure-only", action="store_true",
                       help="ignore text values by default "
                            "(structure-only mode)")
    serve.add_argument("--shard", default=None, metavar="RXPD",
                       help="attach the served index from this RXPD "
                            "shard via mmap instead of building it "
                            "(fingerprint-checked against the served "
                            "network)")
    serve.add_argument("--registry", default=None, metavar="TOML",
                       help="serve every domain of a registry.toml "
                            "manifest; requests pick one with the "
                            "envelope's 'domain' key (mutually "
                            "exclusive with --network/--shard)")
    serve.add_argument("--scrub-interval", type=float, default=0.0,
                       metavar="SECONDS",
                       help="run the background shard integrity "
                            "scrubber, one bounded slice every N "
                            "seconds (default 0 = off); damaged shards "
                            "are quarantined and the server fails over "
                            "to a heap-built index")
    serve.add_argument("--scrub-slice-bytes", type=int, default=1 << 20,
                       metavar="BYTES",
                       help="bytes re-verified per scrub slice "
                            "(default 1 MiB)")
    serve.add_argument("--no-scrub-repair", action="store_true",
                       help="detect + quarantine only; skip re-packing "
                            "a damaged shard from its source network")
    serve.add_argument("--reload-interval", type=float, default=0.0,
                       metavar="SECONDS",
                       help="watch the registry manifest and shard "
                            "files and hot-reload sessions when they "
                            "change (default 0 = SIGHUP only)")

    audit = sub.add_parser("audit", help="rank nodes by ambiguity degree")
    audit.add_argument("file", help="path to the XML document")
    audit.add_argument("--top", type=int, default=15,
                       help="how many nodes to show (default 15)")

    lex = sub.add_parser("lexicon", help="inspect the bundled lexicon")
    lex.add_argument("--word", default=None,
                     help="show the sense inventory of one word")

    match = sub.add_parser(
        "match", help="semantically match two documents' tag vocabularies"
    )
    match.add_argument("file_a", help="first XML document")
    match.add_argument("file_b", help="second XML document")
    match.add_argument("--min-score", type=float, default=0.5,
                       help="drop soft matches below this similarity")

    val = sub.add_parser(
        "validate", help="validate a semantic network JSON file"
    )
    val.add_argument("file", help="path to a repro-semnet JSON document")

    corpus = sub.add_parser(
        "corpus", help="export the generated test collection to a directory"
    )
    corpus.add_argument("directory", help="output directory")
    corpus.add_argument("--seed", type=int, default=2015,
                        help="generation seed (default 2015)")

    rep = sub.add_parser(
        "report",
        help="regenerate every paper table/figure (markdown to stdout)",
    )
    rep.add_argument("--out", default=None,
                     help="write the report to a file instead of stdout")

    lint = sub.add_parser(
        "lint",
        help="check XSDF correctness contracts (reprolint)",
    )
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files, directories, or glob patterns "
                           "(default: src tests)")
    lint.add_argument("--format", choices=("text", "json", "sarif"),
                      default="text",
                      help="report format (default text)")
    lint.add_argument("--rules", default=None, metavar="ID[,ID...]",
                      help="run only these rule IDs")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")
    lint.add_argument("--out", default=None, metavar="FILE",
                      help="write the report to a file instead of stdout")
    lint.add_argument("--changed", action="store_true",
                      help="lint only files changed per git (plus their "
                           "transitive importers)")
    lint.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="parse with N worker processes (default 1)")
    lint.add_argument("--cache", default=None, metavar="FILE",
                      help="incremental analysis cache file "
                           "(default .reprolint-cache.json when --changed)")
    lint.add_argument("--no-cache", action="store_true",
                      help="disable the analysis cache entirely")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      help="suppress findings recorded in this baseline")
    lint.add_argument("--write-baseline", default=None, metavar="FILE",
                      help="record the current findings as a baseline "
                           "and exit 0")
    return parser


def _make_config(args: argparse.Namespace) -> XSDFConfig:
    weights = SimilarityWeights()
    if args.weights:
        try:
            edge, node, gloss = (float(x) for x in args.weights.split(","))
        except ValueError:
            raise SystemExit(
                f"--weights expects EDGE,NODE,GLOSS numbers, got {args.weights!r}"
            )
        weights = SimilarityWeights(edge, node, gloss)
    return XSDFConfig(
        sphere_radius=args.radius,
        approach=_APPROACHES[args.approach],
        ambiguity_threshold=args.threshold,
        similarity_weights=weights,
        include_values=not args.structure_only,
        strip_target_dimension=args.strip_target_dimension,
        # Batch-only flags; the disambiguate parser keeps the defaults.
        prune=not getattr(args, "no_prune", False),
        memo=not getattr(args, "no_memo", False),
    )


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise SystemExit(f"cannot read {path}: {exc}")


def _load_network(path: str):
    from .semnet.io import NetworkFormatError, load_network

    try:
        return load_network(path)
    except NetworkFormatError as exc:
        raise SystemExit(f"unreadable network: {exc}")


def _cmd_disambiguate(args: argparse.Namespace, out) -> int:
    network = default_lexicon()
    xsdf = XSDF(network, _make_config(args))
    text = _read(args.file)
    if args.xml:
        out.write(xsdf.to_semantic_xml(text))
        return 0
    result = xsdf.disambiguate_document(text)
    out.write(
        f"{result.n_targets} targets / {result.n_nodes} nodes "
        f"(radius d={result.radius})\n"
    )
    out.write(f"{'label':<18}{'sense':<22}{'score':>7}  gloss\n")
    for assignment in result.assignments:
        gloss = network.concept(assignment.concept_id).gloss
        out.write(
            f"{assignment.label:<18}{assignment.concept_id:<22}"
            f"{assignment.score:>7.3f}  {gloss[:44]}\n"
        )
    return 0


def _cmd_batch(args: argparse.Namespace, out) -> int:
    import json as jsonlib
    from collections import defaultdict, deque

    from .runtime.executor import (
        DEFAULT_CACHE_SIZE,
        BatchExecutor,
        BatchRecord,
    )
    from .runtime.journal import document_digest
    from .runtime.metrics import MetricsRegistry, batch_summary
    from .runtime.resilience import BatchAbortError

    paths: list[str] = []
    for pattern in args.patterns:
        matches = sorted(globlib.glob(pattern, recursive=True))
        if not matches:
            raise SystemExit(f"no files match {pattern!r}")
        paths.extend(matches)
    documents = [(path, _read(path)) for path in paths]

    network, prebuilt_index, registry, domain_note = _resolve_batch_index(
        args, documents
    )
    injector = _make_injector(args)
    config = _make_config(args)
    journal, run_docs, todo_indices, replayed = _open_journal(
        args, config, network, documents
    )
    # run_docs position -> final record, fed by the executor's
    # record_hook in completion order.  This is both the journal's
    # append point and the KeyboardInterrupt salvage: whatever is here
    # when the batch dies is what the partial output can emit.
    completed_by_pos: dict[int, BatchRecord] = {}
    pending_by_name: dict[str, deque[int]] = defaultdict(deque)
    digest_by_name: dict[str, str] = {}
    for pos, (name, xml) in enumerate(run_docs):
        pending_by_name[name].append(pos)
        digest_by_name[name] = document_digest(xml)

    def _record_hook(record: "BatchRecord") -> None:
        queue = pending_by_name.get(record.name)
        if queue:
            completed_by_pos[queue.popleft()] = record
        if journal is not None:
            journal.append(record, digest_by_name[record.name])

    metrics = MetricsRegistry()
    try:
        executor = BatchExecutor(
            network,
            config,
            workers=args.workers,
            chunk_size=args.chunk_size,
            use_index=not args.no_index,
            packed=not args.dict_index,
            cache_size=(
                args.cache_size if args.cache_size is not None
                else DEFAULT_CACHE_SIZE
            ),
            metrics=metrics,
            max_retries=args.max_retries,
            doc_timeout=args.doc_timeout,
            on_error=args.on_error,
            index=prebuilt_index,
            injector=injector,
            record_hook=_record_hook,
        )
    except ValueError as exc:
        if journal is not None:
            journal.close()
        raise SystemExit(str(exc))
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    aborted: BatchAbortError | None = None
    interrupted = False
    try:
        records = executor.run(run_docs)
    except BatchAbortError as exc:
        # Partial results are still written; the exit code reports the
        # abort.
        aborted = exc
        records = exc.records
    except KeyboardInterrupt:
        # Salvage what completed: the hook saw every finalized record,
        # so the partial output (and the journal, flushed below) keeps
        # the finished work instead of dying with a truncated file.
        interrupted = True
        records = [completed_by_pos[i] for i in sorted(completed_by_pos)]
    finally:
        # Snapshot the index backing before teardown: closing the
        # registry releases its mmap attachments (materializing the
        # tables to heap), which would misreport the run itself.
        index_backing = (
            getattr(executor.index, "backing", "heap")
            if not args.no_index else None
        )
        # One batch per CLI process: drain the persistent pool and
        # unlink the temporary index shard before writing results.
        executor.close()
        if registry is not None:
            registry.close()
        if journal is not None:
            journal.close()
    if profiler is not None:
        profiler.disable()
    if args.metrics_json:
        metrics.write_json(args.metrics_json)

    records = _merge_replayed(
        documents, run_docs, todo_indices, replayed, records,
        completed_by_pos, partial=interrupted or aborted is not None,
    )
    failures = [r for r in records if not r.ok]
    quarantined: list = []
    emitted = records
    quarantine_path = None
    if args.on_error == "quarantine" and failures:
        # Failed documents go to the sidecar; the main JSONL keeps only
        # survivors (whose lines stay byte-identical to a clean run).
        quarantined = failures
        emitted = [r for r in records if r.ok]
        quarantine_path = args.quarantine or "quarantine.jsonl"
        with open(quarantine_path, "w", encoding="utf-8") as handle:
            for record in quarantined:
                payload = record.to_dict()
                if record.outcome is not None:
                    payload["outcome"] = record.outcome.to_dict()
                handle.write(jsonlib.dumps(payload, sort_keys=True))
                handle.write("\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            for record in emitted:
                handle.write(record.to_json_line())
                handle.write("\n")
    else:
        for record in emitted:
            out.write(record.to_json_line())
            out.write("\n")

    summary = batch_summary(metrics.report(), len(records), len(failures))
    if index_backing is not None:
        # Where the index tables physically lived during the run:
        # "mmap" proves the zero-copy shard attach actually happened,
        # "heap" that the index was (re)built in this process.
        summary += f", index={index_backing}"
    summary += domain_note
    if args.journal:
        summary += (
            f", journal replayed={len(replayed)} "
            f"scored={len(completed_by_pos)} -> {args.journal}"
        )
    if quarantined:
        summary += f", {len(quarantined)} quarantined -> {quarantine_path}"
    if interrupted:
        summary = (
            f"interrupted: wrote {len(records)}/{len(documents)} "
            f"records; " + summary
        )
    stream = sys.stderr if not args.out else out
    stream.write(summary + "\n")
    for record in failures:
        outcome = record.outcome
        detail = (
            f" [stage={outcome.stage or 'pipeline'}, "
            f"attempts={outcome.attempts}]"
            if outcome is not None else ""
        )
        status = "QUARANTINED" if args.on_error == "quarantine" else "FAILED"
        stream.write(f"  {status} {record.name}: {record.error}{detail}\n")
    if aborted is not None:
        stream.write(f"  ABORTED (--on-error=fail): {aborted}\n")
    if profiler is not None:
        stream.write(_profile_summary(profiler))
    if interrupted:
        return 130  # the conventional SIGINT exit code (128 + 2)
    if aborted is not None:
        return 2
    if args.on_error == "quarantine":
        return 0
    return 1 if failures else 0


def _resolve_batch_index(args: argparse.Namespace, documents):
    """The (network, prebuilt index, registry, summary note) for a batch.

    Four sources, in priority order: a registry manifest (domain pinned
    or coverage-routed over the batch's combined vocabulary), an RXPD
    shard attached over an explicit network, a bare network JSON, or
    the bundled lexicon.  Shard fingerprints are always checked against
    the network so a stale shard fails loudly instead of scoring wrong.
    """
    if args.registry and (args.network or args.shard):
        raise SystemExit(
            "--registry is mutually exclusive with --network/--shard"
        )
    if args.domain and not args.registry:
        raise SystemExit("--domain requires --registry")
    if args.shard and not args.network:
        raise SystemExit(
            "--shard requires --network (the shard's source network)"
        )
    if (args.shard or args.registry) and (args.dict_index or args.no_index):
        raise SystemExit(
            "--shard/--registry already provide a packed index; "
            "drop --dict-index/--no-index"
        )
    if args.registry:
        from .runtime.store import NetworkRegistry, RegistryError

        try:
            registry = NetworkRegistry.load(args.registry)
            if args.domain:
                registry.entry(args.domain)  # unknown domains fail here
                domain, coverage = args.domain, None
            else:
                domain, coverage = registry.route(
                    "\n".join(xml for _, xml in documents)
                )
            attached = registry.attach(domain)
        except RegistryError as exc:
            raise SystemExit(str(exc))
        note = f", domain={domain}"
        if coverage is not None:
            note += f" (coverage {coverage:.2f})"
        return attached.network, attached.index, registry, note
    if args.shard:
        from .runtime.pack import PackedIndex, PackedIndexError

        network = _load_network(args.network)
        try:
            index = PackedIndex.from_mmap(
                args.shard, expect_fingerprint=network.fingerprint()
            )
        except (PackedIndexError, OSError) as exc:
            raise SystemExit(f"cannot attach shard {args.shard}: {exc}")
        return network, index, None, ""
    if args.network:
        return _load_network(args.network), None, None, ""
    return default_lexicon(), None, None, ""


def _make_injector(args: argparse.Namespace):
    """A seeded :class:`FaultInjector` from ``--chaos-fault`` flags."""
    if not getattr(args, "chaos_fault", None):
        return None
    from .runtime.faults import FaultInjector, FaultSpec

    try:
        specs = [FaultSpec.parse(text) for text in args.chaos_fault]
    except ValueError as exc:
        raise SystemExit(str(exc))
    return FaultInjector(args.chaos_seed, specs)


def _open_journal(args: argparse.Namespace, config, network, documents):
    """Set up the batch journal and split replayed from to-score work.

    Returns ``(journal, run_docs, todo_indices, replayed)``: the open
    :class:`~repro.runtime.journal.JournalWriter` (or ``None``), the
    documents still needing scores, their indices into ``documents``,
    and ``{document index: journal entry}`` for the completed ones.
    ``--resume`` refuses a journal stamped with a different config or
    network fingerprint — replaying those records would break the
    byte-identity contract.
    """
    if args.resume and not args.journal:
        raise SystemExit("--resume requires --journal")
    if args.journal is None:
        return None, documents, list(range(len(documents))), {}
    from .runtime.journal import (
        JournalError,
        JournalWriter,
        document_digest,
        read_journal,
    )
    from .runtime.memo import config_fingerprint

    meta = {
        "config": config_fingerprint(config),
        "network": network.fingerprint(),
    }
    replayed: dict[int, dict] = {}
    todo = list(range(len(documents)))
    if args.resume:
        try:
            replay = read_journal(args.journal)
        except JournalError as exc:
            raise SystemExit(f"cannot resume: {exc}")
        if not replay.matches(meta["config"], meta["network"]):
            raise SystemExit(
                f"cannot resume: journal {args.journal} was written under "
                f"a different configuration or network; rerun without "
                f"--resume to start over"
            )
        done = replay.completed()
        todo = []
        for i, (name, xml) in enumerate(documents):
            entry = done.get((name, document_digest(xml)))
            if entry is None:
                todo.append(i)
            else:
                replayed[i] = entry
    try:
        journal = JournalWriter(args.journal, meta=meta, resume=args.resume)
    except OSError as exc:
        raise SystemExit(f"cannot open journal {args.journal}: {exc}")
    run_docs = [documents[i] for i in todo]
    return journal, run_docs, todo, replayed


def _merge_replayed(
    documents, run_docs, todo_indices, replayed, records,
    completed_by_pos, partial: bool,
):
    """Merge replayed journal entries and fresh records in input order.

    Replayed entries are reconstituted into :class:`BatchRecord`
    objects whose JSONL rendering is byte-identical to the line the
    crashed run would have written (``to_dict`` round-trips through
    canonical JSON).  Under a partial run (KeyboardInterrupt, abort)
    unfinished documents are simply absent from the output.
    """
    from .runtime.executor import BatchRecord
    from .runtime.resilience import DocOutcome

    if partial:
        scored_by_pos = completed_by_pos
    else:
        scored_by_pos = dict(enumerate(records))
    pos_of_doc = {doc_idx: pos for pos, doc_idx in enumerate(todo_indices)}
    merged = []
    for doc_idx in range(len(documents)):
        entry = replayed.get(doc_idx)
        if entry is not None:
            rec = entry["record"]
            merged.append(BatchRecord(
                name=rec["name"],
                result=rec.get("result"),
                error=rec.get("error"),
                elapsed_s=0.0,
                outcome=(
                    DocOutcome.from_dict(entry["outcome"])
                    if "outcome" in entry else None
                ),
            ))
            continue
        record = scored_by_pos.get(pos_of_doc[doc_idx])
        if record is not None:
            merged.append(record)
    return merged


def _cmd_pack(args: argparse.Namespace, out) -> int:
    import time as timelib

    from .runtime.pack import PackedIndex
    from .runtime.store import verify_shard, write_shard

    if args.network and args.synthetic:
        raise SystemExit("--network and --synthetic are mutually exclusive")
    if args.synthetic is not None:
        from .semnet.generator import GeneratorConfig, generate_network

        try:
            network = generate_network(GeneratorConfig(
                n_concepts=args.synthetic,
                seed=args.seed,
                gloss_style=args.gloss_style,
            ))
        except ValueError as exc:
            raise SystemExit(str(exc))
    elif args.network:
        network = _load_network(args.network)
    else:
        network = default_lexicon()
    start = timelib.perf_counter()
    index = PackedIndex(network)
    fingerprint = None if args.no_fingerprint else network.fingerprint()
    try:
        info = write_shard(index, args.out, fingerprint=fingerprint)
    except OSError as exc:
        raise SystemExit(f"cannot write shard {args.out}: {exc}")
    elapsed = timelib.perf_counter() - start
    out.write(
        f"packed {info['concepts']} concepts -> {info['path']} "
        f"({info['shard_bytes']} bytes, {elapsed:.2f}s)\n"
    )
    if args.verify:
        stats = verify_shard(args.out)
        out.write(
            f"verified: body CRC ok, {stats['ancestor_entries']} closure "
            f"entries, fingerprint {stats['fingerprint'] or 'unstamped'}\n"
        )
    return 0


def _profile_summary(profiler, top: int = 15) -> str:
    """The hottest frames of a batch run, formatted for the summary.

    Sorted by cumulative time so pipeline stages surface above their
    leaf callees; under ``--workers > 1`` only the parent process is
    profiled (pool dispatch + any serial fallback), which the header
    states to avoid misreading worker-side costs as absent.
    """
    import io
    import pstats

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    lines = [
        line for line in buffer.getvalue().splitlines()
        # pstats emits leading banner/blank lines and absolute paths;
        # keep the table only, trimmed to the repo-relative tail.
        if line.strip()
    ]
    return (
        "--- profile (parent process, top frames by cumulative time) ---\n"
        + "\n".join(lines)
        + "\n"
    )


def _cmd_serve(args: argparse.Namespace, out) -> int:
    from .runtime.executor import DEFAULT_CACHE_SIZE
    from .server import ReproServer, ServerApp, ServerConfig
    from .server.lifecycle import announce_to_stderr
    from .server.protocol import DEFAULT_MAX_BODY_BYTES

    if args.registry and (args.network or args.shard):
        raise SystemExit(
            "--registry is mutually exclusive with --network/--shard"
        )
    if args.network:
        network = _load_network(args.network)
    else:
        network = default_lexicon()
    try:
        server_config = ServerConfig(
            host=args.host,
            port=args.port,
            max_concurrency=args.max_concurrency,
            rate_limit=args.rate_limit,
            burst=args.burst,
            max_body_bytes=(
                args.max_body_bytes if args.max_body_bytes is not None
                else DEFAULT_MAX_BODY_BYTES
            ),
            request_timeout=args.request_timeout,
            drain_timeout=args.drain_timeout,
            metrics_json=args.metrics_json,
            packed=not args.dict_index,
            cache_size=(
                args.cache_size if args.cache_size is not None
                else DEFAULT_CACHE_SIZE
            ),
            workers=args.workers,
            shard=args.shard,
            registry=args.registry,
            network_path=args.network,
            scrub_interval=args.scrub_interval,
            scrub_slice_bytes=args.scrub_slice_bytes,
            scrub_repair=not args.no_scrub_repair,
            reload_interval=args.reload_interval,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    app = ServerApp(
        network, config=_make_config(args), server_config=server_config
    )
    return ReproServer(app).serve(announce=announce_to_stderr)


def _cmd_audit(args: argparse.Namespace, out) -> int:
    network = default_lexicon()
    xsdf = XSDF(network, XSDFConfig())
    tree = xsdf.build_tree(_read(args.file))
    out.write(f"{'label':<18}{'Amb_Deg':>8}{'senses':>8}{'depth':>7}\n")
    for report in rank_nodes(tree, network)[: args.top]:
        out.write(
            f"{report.label:<18}{report.degree:>8.4f}"
            f"{network.polysemy(report.label):>8}"
            f"{tree[report.node_index].depth:>7}\n"
        )
    return 0


def _cmd_lexicon(args: argparse.Namespace, out) -> int:
    network = default_lexicon()
    if args.word is None:
        for key, value in network.stats().items():
            out.write(f"{key:>16}: {value}\n")
        return 0
    senses = network.senses(args.word)
    if not senses:
        out.write(f"{args.word!r} is not in the lexicon\n")
        return 1
    for sense in senses:
        out.write(f"{sense.id:<22} {sense.gloss}\n")
    return 0


def _cmd_match(args: argparse.Namespace, out) -> int:
    from .applications.matching import SemanticMatcher

    network = default_lexicon()
    xsdf = XSDF(network, XSDFConfig(
        sphere_radius=2, strip_target_dimension=True,
    ))
    matcher = SemanticMatcher(xsdf, min_score=args.min_score)
    correspondences = matcher.match(_read(args.file_a), _read(args.file_b))
    if not correspondences:
        out.write("no correspondences found\n")
        return 1
    out.write(f"{'label A':<16}{'label B':<16}{'score':>7}  concepts\n")
    for c in correspondences:
        concepts = (
            c.concept_a if c.exact else f"{c.concept_a} ~ {c.concept_b}"
        )
        out.write(
            f"{c.label_a:<16}{c.label_b:<16}{c.score:>7.3f}  {concepts}\n"
        )
    return 0


def _cmd_validate(args: argparse.Namespace, out) -> int:
    from .semnet.io import NetworkFormatError, load_network
    from .semnet.validate import validate_network

    try:
        network = load_network(args.file)
    except NetworkFormatError as exc:
        out.write(f"unreadable network: {exc}\n")
        return 2
    report = validate_network(network)
    for issue in report.issues:
        out.write(f"{issue.severity:>8}  {issue.code:<16} {issue.message}\n")
    if report.ok:
        out.write(
            f"ok: {len(network)} concepts, "
            f"{len(report.warnings())} warning(s)\n"
        )
        return 0
    out.write(f"invalid: {len(report.errors())} error(s)\n")
    return 1


def _cmd_corpus(args: argparse.Namespace, out) -> int:
    from .datasets.export import export_corpus

    manifest = export_corpus(args.directory, seed=args.seed)
    n_docs = sum(len(d["documents"]) for d in manifest["datasets"])
    out.write(
        f"exported {n_docs} documents across "
        f"{len(manifest['datasets'])} datasets to {args.directory}\n"
    )
    return 0


def _cmd_report(args: argparse.Namespace, out) -> int:
    from .evaluation.experiments import full_report

    report = full_report()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
        out.write(f"report written to {args.out}\n")
    else:
        out.write(report)
    return 0


def _git_changed_files(root: str) -> list[str]:
    """Files git considers modified or untracked under ``root``."""
    import subprocess

    changed: set[str] = set()
    commands = (
        ["git", "-C", root, "diff", "--name-only", "HEAD"],
        ["git", "-C", root, "ls-files", "--others", "--exclude-standard"],
    )
    for command in commands:
        try:
            output = subprocess.run(
                command, capture_output=True, text=True, check=True,
            ).stdout
        except (OSError, subprocess.CalledProcessError) as exc:
            raise SystemExit(
                f"--changed needs a git checkout: {' '.join(command)} "
                f"failed ({exc})"
            )
        changed.update(
            os.path.join(root, line)
            for line in output.splitlines() if line.strip()
        )
    return sorted(changed)


def _cmd_lint(args: argparse.Namespace, out) -> int:
    from .devtools import (
        AnalysisCache,
        RULE_CLASSES,
        all_rules,
        apply_baseline,
        find_project_root,
        lint_paths,
        load_baseline,
        write_baseline,
    )
    from .devtools.reporters import render_json, render_sarif, render_text

    if args.list_rules:
        width = max(len(rule_id) for rule_id in RULE_CLASSES)
        for rule_id, rule_class in sorted(RULE_CLASSES.items()):
            out.write(f"{rule_id:<{width}}  {rule_class.description}\n")
        return 0
    try:
        rules = all_rules(
            args.rules.split(",") if args.rules else None
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    paths: list[str] = []
    for pattern in args.paths or ["src", "tests"]:
        matches = sorted(globlib.glob(pattern, recursive=True))
        if matches:
            paths.extend(matches)
        else:
            # Not a glob hit — keep it literal so missing paths error
            # loudly below instead of silently linting nothing.
            paths.append(pattern)
    for path in paths:
        if not os.path.exists(path):
            raise SystemExit(f"cannot lint {path}: no such file or directory")

    project_root = find_project_root(paths[0]) if paths else None
    changed = None
    if args.changed:
        changed = _git_changed_files(str(project_root or "."))
    cache = None
    if not args.no_cache:
        cache_path = args.cache
        if cache_path is None and args.changed:
            cache_path = os.path.join(
                str(project_root or "."), ".reprolint-cache.json"
            )
        if cache_path is not None:
            cache = AnalysisCache(cache_path)
    findings = lint_paths(
        paths, rules=rules, project_root=project_root,
        cache=cache, jobs=max(args.jobs, 1), changed=changed,
    )
    if args.write_baseline:
        write_baseline(args.write_baseline, findings)
        out.write(
            f"baseline with {len(findings)} finding"
            f"{'s' if len(findings) != 1 else ''} written to "
            f"{args.write_baseline}\n"
        )
        return 0
    if args.baseline:
        try:
            findings = apply_baseline(findings, load_baseline(args.baseline))
        except ValueError as exc:
            raise SystemExit(str(exc))
    if args.format == "json":
        report = render_json(findings)
    elif args.format == "sarif":
        report = render_sarif(findings, rules=rules,
                              project_root=project_root)
    else:
        report = render_text(findings)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report)
        out.write(
            f"{len(findings)} finding{'s' if len(findings) != 1 else ''} "
            f"written to {args.out}\n"
        )
    else:
        out.write(report)
    return 1 if findings else 0


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    handlers = {
        "disambiguate": _cmd_disambiguate,
        "batch": _cmd_batch,
        "pack": _cmd_pack,
        "serve": _cmd_serve,
        "audit": _cmd_audit,
        "lexicon": _cmd_lexicon,
        "match": _cmd_match,
        "validate": _cmd_validate,
        "report": _cmd_report,
        "corpus": _cmd_corpus,
        "lint": _cmd_lint,
    }
    try:
        return handlers[args.command](args, out)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe — conventional clean exit.
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
