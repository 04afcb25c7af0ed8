"""CI chaos gates: fixed-seed fault injection, zero result divergence.

Three hard gates, each exit-code enforced (run all with no arguments,
or name a subset: ``executor``, ``kill-resume``, ``bitrot-scrub``):

``executor``
    Runs the test corpus through :class:`repro.runtime.BatchExecutor`
    twice — once fault-free, once under a fixed-seed
    :class:`FaultInjector` schedule that exercises every recovery path
    (flaky-then-recover retries, a permanent fault, corrupted packed
    payloads for every worker) — and gates on the hard exactness
    contract: every surviving document byte-identical to the fault-free
    run, exactly the scheduled casualty failing (with a structured
    outcome), and the retried/degraded paths proven to have fired.  The
    faulted batch then replays on the same warm executor
    (``pool_reuse_count >= 1``) and must stay byte-identical.

``kill-resume``
    The crash-recovery contract across the real process boundary: a
    ``repro batch --journal`` run is SIGKILLed mid-batch by a seeded
    ``kill_midbatch`` fault, then re-run with ``--resume``.  The gate
    requires the kill to have actually landed (exit -9/137), the resume
    to replay a non-zero number of journaled documents (non-vacuous),
    and the resumed output file to be **byte-identical** to an
    uninterrupted reference run.

``bitrot-scrub``
    The self-healing contract on a live daemon: ``repro serve`` attaches
    an RXPD shard with a fast scrub cadence, a seeded ``bitrot`` fault
    flips one body byte on disk, and the gate requires the scrubber to
    detect + quarantine the shard (``*.quarantined`` on disk), the
    server to fail over to a heap backing with **zero failed requests**
    while hammered throughout, ``/healthz`` to report ``degraded``, and
    SIGTERM to still drain to exit 0.

Exit code 0 on success, 1 with a divergence report otherwise.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import signal
import socket
import subprocess
import sys
import tempfile
import time

from repro import XSDFConfig
from repro.datasets import generate_test_corpus
from repro.runtime import BatchExecutor, FaultInjector, FaultSpec, MetricsRegistry
from repro.semnet.lexicon import default_lexicon

#: Fixed chaos seed — the schedule (and therefore the gate) is fully
#: deterministic; bump only together with the expectations below.
CHAOS_SEED = 42

XML = "<library><book><title>bank</title></book></library>"


def gate_executor() -> list[str]:
    """In-process executor chaos: survivors byte-identical, warm pool too."""
    lexicon = default_lexicon()
    corpus = generate_test_corpus()
    docs = []
    for dataset in corpus.datasets():
        docs.append(corpus.by_dataset(dataset)[0])
        if len(docs) == 8:
            break
    batch = [(d.name, d.xml) for d in docs]
    names = [name for name, _ in batch]
    flaky_name, permanent_name = names[1], names[4]

    baseline = {
        r.name: r.to_json_line()
        for r in BatchExecutor(lexicon, XSDFConfig(), workers=1).run(batch)
    }

    metrics = MetricsRegistry()
    executor = BatchExecutor(
        lexicon,
        XSDFConfig(),
        workers=2,
        backoff_base=0.0,
        metrics=metrics,
        oversubscribe=True,  # the gate must exercise the real pool
        injector=FaultInjector(CHAOS_SEED, [
            FaultSpec.flaky(match=flaky_name, fail_attempts=1),
            FaultSpec.raising(match=permanent_name, transient=False),
            FaultSpec.corrupt_packed(),
        ]),
    )
    records = executor.run(batch)
    # Round 2, same executor: the chaos schedule replays identically on
    # the warm persistent pool (the injector is stateless, so the same
    # faults fire), covering the steady state the server actually runs.
    warm_records = executor.run(batch)
    runtime_stats = executor.runtime_stats()
    executor.close()

    problems: list[str] = []
    if [r.name for r in records] != names:
        problems.append("records came back out of input order")
    for record in records:
        if record.name == permanent_name:
            if record.ok:
                problems.append(
                    f"{record.name}: scheduled permanent fault did not fire"
                )
            elif record.outcome is None or record.outcome.stage != "inject":
                problems.append(
                    f"{record.name}: casualty lacks a structured outcome"
                )
            continue
        if not record.ok:
            problems.append(f"{record.name}: unexpected failure {record.error}")
        elif record.to_json_line() != baseline[record.name]:
            problems.append(
                f"{record.name}: DIVERGED from the fault-free run"
            )

    # Warm round: the same schedule on the same (now warm) pool.  The
    # injector fires before the doc cache, so the permanent casualty
    # must fail again, and every survivor must still match baseline.
    for record in warm_records:
        if record.name == permanent_name:
            if record.ok:
                problems.append(
                    f"{record.name}: permanent fault missed the warm pool"
                )
            continue
        if not record.ok:
            problems.append(
                f"{record.name}: unexpected warm-pool failure {record.error}"
            )
        elif record.to_json_line() != baseline[record.name]:
            problems.append(f"{record.name}: DIVERGED on the warm pool")
    if runtime_stats.get("pool_reuse_count", 0) < 1:
        problems.append("second batch did not reuse the warm pool")

    counters = metrics.report()["counters"]
    if not counters.get("outcome_retried"):
        problems.append("flaky-then-recover path never fired")
    if not counters.get("degrade_packed_decode"):
        problems.append("corrupt-packed degradation never fired")

    if not problems:
        survivors = sum(1 for r in records if r.ok)
        print(
            f"executor gate passed (seed {CHAOS_SEED}): "
            f"{survivors}/{len(batch)} survivors bit-identical, "
            f"{int(counters['retries'])} retries, "
            f"{int(counters['degrade_packed_decode'])} worker degradations, "
            f"1 structured casualty; warm-pool replay "
            f"(reuse={runtime_stats['pool_reuse_count']}) bit-identical too"
        )
    return problems


def _batch_env() -> dict:
    """Subprocess env with ``src`` on PYTHONPATH (CI and local runs)."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def gate_kill_resume() -> list[str]:
    """SIGKILL a journaled batch mid-run; resume must be byte-identical."""
    problems: list[str] = []
    corpus = generate_test_corpus()
    docs = [d for dataset in corpus.datasets()
            for d in corpus.by_dataset(dataset)][:24]
    if len(docs) < 8:
        return [f"corpus too small for a mid-batch kill ({len(docs)} docs)"]
    env = _batch_env()
    with tempfile.TemporaryDirectory(prefix="repro-killgate-") as tmp:
        # A SIGKILLed batch cannot unlink its temporary index shard;
        # keep it inside this directory so the gate cleans up after it.
        env["TMPDIR"] = tmp
        doc_dir = os.path.join(tmp, "docs")
        os.makedirs(doc_dir)
        for i, doc in enumerate(docs):
            name = os.path.join(doc_dir, f"doc-{i:03d}.xml")
            with open(name, "w", encoding="utf-8") as handle:
                handle.write(doc.xml)
        pattern = os.path.join(doc_dir, "*.xml")
        ref_out = os.path.join(tmp, "ref.jsonl")
        out = os.path.join(tmp, "out.jsonl")
        journal = os.path.join(tmp, "batch.rxjf")
        base_cmd = [sys.executable, "-m", "repro", "batch", pattern,
                    "--workers", "2"]

        # Reference: the uninterrupted run the resumed output must match.
        ref = subprocess.run(
            base_cmd + ["--out", ref_out], env=env,
            capture_output=True, text=True,
        )
        if ref.returncode != 0:
            return [f"reference batch failed ({ref.returncode}): {ref.stderr}"]

        # Kill leg: a seeded kill_midbatch fault SIGKILLs the process
        # when doc-012 is dispatched — no atexit, no cleanup, exactly
        # the crash the journal exists for.
        kill = subprocess.run(
            base_cmd + [
                "--out", out, "--journal", journal,
                "--chaos-seed", str(CHAOS_SEED),
                "--chaos-fault", "kill_midbatch:*doc-012.xml",
            ],
            env=env, capture_output=True, text=True,
        )
        if kill.returncode not in (-signal.SIGKILL, 128 + signal.SIGKILL):
            problems.append(
                f"kill leg exited {kill.returncode}, expected SIGKILL "
                f"(-9/137): {kill.stderr[-500:]}"
            )
        if not os.path.exists(journal) or os.path.getsize(journal) == 0:
            problems.append("killed run left no journal to resume from")
        if problems:
            return problems

        # Resume leg: same batch, same journal, no fault — completed
        # documents replay from the journal, the rest are scored.
        resume = subprocess.run(
            base_cmd + ["--out", out, "--journal", journal, "--resume"],
            env=env, capture_output=True, text=True,
        )
        if resume.returncode != 0:
            problems.append(
                f"resume exited {resume.returncode}: {resume.stderr[-500:]}"
            )
            return problems
        summary = resume.stdout + resume.stderr
        match = re.search(r"journal replayed=(\d+) scored=(\d+)", summary)
        if match is None:
            problems.append(f"resume summary lacks journal stats: {summary!r}")
            return problems
        replayed, scored = int(match.group(1)), int(match.group(2))
        if replayed < 1:
            # A resume that replays nothing proves nothing: the kill
            # must land after at least one record hit the journal.
            problems.append("vacuous gate: resume replayed 0 documents")
        if scored < 1:
            problems.append("vacuous gate: the kill landed after the batch")
        with open(ref_out, "rb") as handle:
            ref_bytes = handle.read()
        with open(out, "rb") as handle:
            out_bytes = handle.read()
        if ref_bytes != out_bytes:
            problems.append(
                "resumed output DIVERGED from the uninterrupted run"
            )
        if not problems:
            print(
                f"kill-resume gate passed (seed {CHAOS_SEED}): SIGKILL "
                f"mid-batch, resume replayed {replayed} + scored {scored} "
                f"of {len(docs)}, output byte-identical to the "
                f"uninterrupted run"
            )
    return problems


def _http(address: "tuple[str, int]", payload: bytes) -> bytes:
    """One raw HTTP round-trip; returns the full response bytes."""
    with socket.create_connection(address, timeout=30) as sock:
        sock.sendall(payload)
        data = b""
        while chunk := sock.recv(4096):
            data += chunk
    return data


def _post_disambiguate(address: "tuple[str, int]", name: str) -> bytes:
    body = json.dumps({"xml": XML, "name": name}).encode("utf-8")
    return _http(address, (
        f"POST /v1/disambiguate HTTP/1.1\r\nHost: gate\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body)


def _get_healthz(address: "tuple[str, int]") -> dict:
    raw = _http(address, b"GET /healthz HTTP/1.1\r\nHost: gate\r\n\r\n")
    return json.loads(raw.partition(b"\r\n\r\n")[2])


def gate_bitrot_scrub() -> list[str]:
    """Flip one shard byte under a live server; require quarantine + 200s."""
    from repro.runtime import PackedIndex
    from repro.runtime.store import write_shard

    problems: list[str] = []
    env = _batch_env()
    with tempfile.TemporaryDirectory(prefix="repro-bitrotgate-") as tmp:
        shard = os.path.join(tmp, "lexicon.rxpd")
        network = default_lexicon()
        write_shard(PackedIndex(network), shard,
                    fingerprint=network.fingerprint())

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--shard", shard,
             "--scrub-interval", "0.02",
             "--scrub-slice-bytes", "16384",
             "--no-scrub-repair"],
            stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            announce = proc.stderr.readline()
            if "repro-serve listening on" not in announce:
                return [f"unexpected announce line: {announce!r}"]
            host, port = announce.strip().rsplit(" ", 1)[1].rsplit(":", 1)
            address = (host, int(port))

            health = _get_healthz(address)
            if health.get("index", {}).get("backing") != "mmap":
                problems.append(
                    "gate precondition: shard did not attach as mmap "
                    f"(backing={health.get('index', {}).get('backing')!r})"
                )
            status = _post_disambiguate(address, "pre-rot").split(b"\r\n")[0]
            if status != b"HTTP/1.1 200 OK":
                problems.append(f"pre-rot request answered {status!r}")
            if problems:
                return problems

            # The seeded bit flip: one body byte XORed in place, exactly
            # what a rotting disk or torn write leaves behind.
            injector = FaultInjector(CHAOS_SEED, [FaultSpec.bitrot()])
            offset = injector.bitrot_shard(shard)
            if offset is None:
                return ["bitrot fault did not fire on the shard"]

            # Hammer the server while the scrubber finds the damage and
            # fails over: every single request must stay 200.
            served = 0
            deadline = time.monotonic() + 30.0
            degraded_health: "dict | None" = None
            while time.monotonic() < deadline:
                status = _post_disambiguate(
                    address, f"during-rot-{served}"
                ).split(b"\r\n")[0]
                if status != b"HTTP/1.1 200 OK":
                    problems.append(
                        f"request {served} failed during failover: {status!r}"
                    )
                    return problems
                served += 1
                health = _get_healthz(address)
                if health.get("status") == "degraded" and \
                        health.get("index", {}).get("backing") == "heap":
                    degraded_health = health
                    break
                time.sleep(0.05)
            if degraded_health is None:
                problems.append(
                    f"server never reported degraded+heap within 30s "
                    f"(last status {health.get('status')!r}, backing "
                    f"{health.get('index', {}).get('backing')!r})"
                )
                return problems

            durability = degraded_health.get("durability", {})
            if not durability.get("degraded"):
                problems.append("healthz durability lacks the degraded map")
            scrub = durability.get("scrubber") or {}
            if scrub.get("quarantined", 0) < 1:
                problems.append("scrubber stats report no quarantined shard")
            quarantined = [
                f for f in os.listdir(tmp) if ".quarantined" in f
            ]
            if not quarantined:
                problems.append("no *.quarantined file on disk")
            if os.path.exists(shard):
                problems.append("damaged shard path was not renamed away")

            # Post-failover request on the heap backing, then drain.
            status = _post_disambiguate(address, "post-rot").split(b"\r\n")[0]
            if status != b"HTTP/1.1 200 OK":
                problems.append(f"post-failover request answered {status!r}")

            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=60)
            if code != 0:
                problems.append(f"SIGTERM drain exited {code}, expected 0")
            if not problems:
                print(
                    f"bitrot-scrub gate passed (seed {CHAOS_SEED}): byte "
                    f"flipped at offset {offset}, quarantine -> "
                    f"{quarantined[0]}, {served + 2} requests all 200, "
                    f"healthz degraded on heap backing, drain -> exit 0"
                )
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return problems


GATES = {
    "executor": gate_executor,
    "kill-resume": gate_kill_resume,
    "bitrot-scrub": gate_bitrot_scrub,
}


def main(argv: "list[str] | None" = None) -> int:
    names = list(argv if argv is not None else sys.argv[1:]) or list(GATES)
    unknown = [n for n in names if n not in GATES]
    if unknown:
        print(f"unknown gate(s): {', '.join(unknown)} "
              f"(have: {', '.join(GATES)})", file=sys.stderr)
        return 2
    failed = False
    for name in names:
        problems = GATES[name]()
        if problems:
            failed = True
            print(f"chaos gate {name} FAILED (seed {CHAOS_SEED}):",
                  file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
