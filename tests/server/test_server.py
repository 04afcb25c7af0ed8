"""End-to-end server battery over real sockets.

Every test boots a :class:`ReproServer` on an ephemeral port inside its
own event loop and talks raw HTTP to it — operational endpoints,
NDJSON streaming, admission control, and the graceful-drain contract.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.config import XSDFConfig
from repro.server import ServerConfig

from .conftest import disambiguate, get, post, request, running

BOOKS_XML = """<?xml version="1.0"?>
<library>
  <book>
    <title>bank</title>
    <author>Stewart</author>
  </book>
</library>
"""


def run(coro):
    return asyncio.run(coro)


class TestServerConfig:
    @pytest.mark.parametrize("knobs", [
        {"max_concurrency": 0},
        {"rate_limit": -1.0},
        {"burst": 0},
        {"max_body_bytes": 0},
        {"request_timeout": 0.0},
        {"drain_timeout": -1.0},
        {"max_sessions": 0},
    ])
    def test_invalid_knobs_raise_value_error(self, knobs):
        with pytest.raises(ValueError):
            ServerConfig(**knobs)


class TestOperationalEndpoints:
    def test_healthz_reports_ready_index_and_uptime(self, make_app, lexicon):
        async def go():
            async with running(make_app()) as server:
                return await request(server, get("/healthz"))

        response = run(go())
        assert response.status == 200
        payload = response.json()
        assert payload["status"] == "ok"
        assert payload["ready"] is True
        assert payload["uptime_s"] >= 0
        assert payload["index"]["fingerprint"] == lexicon.fingerprint()
        assert payload["index"]["kind"] == "packed"
        assert payload["sessions"] == 1
        assert payload["inflight"] == 0

    def test_metrics_snapshot_matches_the_cli_schema(self, make_app):
        async def go():
            async with running(make_app()) as server:
                return await request(server, get("/metrics"))

        response = run(go())
        assert response.status == 200
        snapshot = response.json()
        # Same shape as `repro batch --metrics-json`: one consumer-side
        # parser serves both artifacts.
        for key in ("counters", "stages", "caches", "events",
                    "throughput", "elapsed_s"):
            assert key in snapshot
        assert "server_warmup" in snapshot["stages"]
        assert "sphere_memo" in snapshot["caches"]

    def test_metrics_caches_report_intern_tables(self, make_app, figure1_xml):
        async def go():
            async with running(make_app()) as server:
                await request(server, disambiguate(figure1_xml, name="f"))
                return await request(server, get("/metrics"))

        caches = run(go()).json()["caches"]
        for name in ("intern_labels", "sense_scores", "sense_bounds",
                     "pipeline_words", "pipeline_labels"):
            assert set(caches[name]) == {
                "size", "maxsize", "hits", "misses", "evictions", "hit_rate",
            }, name
        assert caches["intern_labels"]["size"] > 0
        assert caches["sense_scores"]["misses"] > 0

    def test_unknown_path_is_a_404_envelope(self, make_app):
        async def go():
            async with running(make_app()) as server:
                return await request(server, get("/nope"))

        response = run(go())
        assert response.status == 404
        envelope = response.json()["envelope"]
        assert envelope["status"] == "failed"
        assert envelope["stage"] == "routing"

    def test_wrong_method_is_405_with_allow(self, make_app):
        async def go():
            async with running(make_app()) as server:
                return (
                    await request(server, post("/healthz", b"{}")),
                    await request(server, get("/v1/disambiguate")),
                )

        health, disambig = run(go())
        assert health.status == 405
        assert health.headers["allow"] == "GET"
        assert disambig.status == 405
        assert disambig.headers["allow"] == "POST"


class TestDisambiguate:
    def test_ndjson_round_trip(self, make_app, figure1_xml):
        async def go():
            async with running(make_app()) as server:
                return await request(
                    server, disambiguate(figure1_xml, name="films")
                )

        response = run(go())
        assert response.status == 200
        assert response.headers["content-type"] == "application/x-ndjson"
        lines = response.ndjson()
        annotations, record, envelope = lines[:-2], lines[-2], lines[-1]
        assert annotations, "expected at least one annotation line"
        for seq, line in enumerate(annotations):
            assert line["doc"] == "films"
            assert line["seq"] == seq
            assert "chosen" in line["annotation"]
        assert record["name"] == "films"
        assert record["ok"] is True
        assert [a["annotation"] for a in annotations] == \
            record["result"]["assignments"]
        assert envelope["envelope"]["status"] == "ok"

    def test_chunk_per_line_framing(self, make_app, figure1_xml):
        async def go():
            async with running(make_app()) as server:
                return await request(server, disambiguate(figure1_xml))

        response = run(go())
        assert response.chunks is not None
        # One complete, newline-terminated JSON document per chunk: a
        # client can act on each annotation before the stream ends.
        for chunk in response.chunks:
            assert chunk.endswith(b"\n")
            json.loads(chunk)
        assert len(response.chunks) == len(response.ndjson())

    def test_raw_xml_body_with_name_header(self, make_app):
        async def go():
            async with running(make_app()) as server:
                return await request(server, post(
                    "/v1/disambiguate", BOOKS_XML.encode("utf-8"),
                    content_type="application/xml",
                    headers=(("X-Repro-Name", "books"),),
                ))

        response = run(go())
        assert response.status == 200
        record = response.ndjson()[-2]
        assert record["name"] == "books"
        assert record["ok"] is True

    def test_malformed_xml_is_a_422_failed_stream(self, make_app):
        async def go():
            async with running(make_app()) as server:
                return await request(
                    server, disambiguate("<open><unclosed>", name="broken")
                )

        response = run(go())
        assert response.status == 422
        lines = response.ndjson()
        record, envelope = lines[-2], lines[-1]
        assert record["ok"] is False
        assert envelope["envelope"]["status"] == "failed"
        assert envelope["envelope"]["error_type"]

    def test_malformed_json_envelope_is_400(self, make_app):
        async def go():
            async with running(make_app()) as server:
                return await request(server, post(
                    "/v1/disambiguate", b"{nope", "application/json"
                ))

        response = run(go())
        assert response.status == 400
        envelope = response.json()["envelope"]
        assert envelope["stage"] == "envelope"

    def test_unknown_override_key_is_400(self, make_app, figure1_xml):
        async def go():
            async with running(make_app()) as server:
                return await request(server, disambiguate(
                    figure1_xml, config={"raduis": 1}
                ))

        response = run(go())
        assert response.status == 400
        assert "raduis" in response.json()["envelope"]["error"]

    def test_invalid_override_value_is_400(self, make_app, figure1_xml):
        async def go():
            async with running(make_app()) as server:
                return (
                    await request(server, disambiguate(
                        figure1_xml, config={"radius": "big"}
                    )),
                    await request(server, disambiguate(
                        figure1_xml, config={"radius": 0}
                    )),
                )

        bad_type, bad_value = run(go())
        assert bad_type.status == 400
        assert bad_value.status == 400

    def test_config_override_answers_and_opens_a_session(
        self, make_app, figure1_xml
    ):
        async def go():
            async with running(make_app()) as server:
                default = await request(server, disambiguate(figure1_xml))
                concept = await request(server, disambiguate(
                    figure1_xml, config={"approach": "concept", "radius": 1}
                ))
                health = await request(server, get("/healthz"))
                return default, concept, health

        default, concept, health = run(go())
        assert default.status == 200
        assert concept.status == 200
        # The override ran in its own session, alongside the default.
        assert health.json()["sessions"] == 2

    def test_oversized_body_is_413(self, make_app, figure1_xml):
        async def go():
            app = make_app(max_body_bytes=64)
            async with running(app) as server:
                return await request(server, disambiguate(figure1_xml))

        response = run(go())
        assert response.status == 413
        assert response.json()["envelope"]["stage"] == "protocol"

    def test_rate_limit_is_429_with_retry_after(self, make_app, figure1_xml):
        async def go():
            app = make_app(rate_limit=0.001, burst=1)
            async with running(app) as server:
                first = await request(server, disambiguate(figure1_xml))
                second = await request(server, disambiguate(figure1_xml))
                return first, second

        first, second = run(go())
        assert first.status == 200
        assert second.status == 429
        assert int(second.headers["retry-after"]) >= 1
        assert second.json()["envelope"]["stage"] == "admission"

    def test_request_timeout_is_a_504_envelope(self, make_app, figure1_xml):
        async def go():
            app = make_app(request_timeout=1e-6)
            async with running(app) as server:
                return await request(server, disambiguate(figure1_xml))

        response = run(go())
        assert response.status == 504
        envelope = response.ndjson()[-1]["envelope"]
        assert envelope["stage"] == "timeout"
        assert envelope["error_type"] == "TimeoutError"

    def test_concurrent_clients_get_identical_records(
        self, make_app, figure1_xml
    ):
        async def go():
            app = make_app(max_concurrency=8)
            async with running(app) as server:
                payload = disambiguate(figure1_xml, name="films")
                return await asyncio.gather(
                    *(request(server, payload) for _ in range(6))
                )

        responses = run(go())
        lines = [r.body.split(b"\n")[-3] for r in responses]
        assert all(r.status == 200 for r in responses)
        # Deterministic under concurrency: every client sees the same
        # record bytes.
        assert len(set(lines)) == 1

    def test_warm_caches_serve_the_second_request(self, make_app, figure1_xml):
        async def go():
            async with running(make_app()) as server:
                first = await request(
                    server, disambiguate(figure1_xml, name="films")
                )
                second = await request(
                    server, disambiguate(figure1_xml, name="films")
                )
                metrics = await request(server, get("/metrics"))
                return first, second, metrics

        first, second, metrics = run(go())
        snapshot = metrics.json()
        # The record line is identical either way...
        assert first.body.split(b"\n")[-3] == second.body.split(b"\n")[-3]
        # ...but the second request was served from the warm document
        # cache, and the index was built exactly once, at warm-up.
        assert snapshot["caches"]["documents"]["hits"] >= 1
        assert snapshot["stages"]["server_warmup"]["count"] == 1
        assert snapshot["counters"]["documents_served"] == 2


class TestDrain:
    def test_drain_finishes_inflight_and_refuses_new_connections(
        self, make_app, figure1_xml
    ):
        async def go():
            app = make_app()
            async with running(app) as server:
                host, port = server.address
                body = json.dumps(
                    {"xml": figure1_xml, "name": "inflight"}
                ).encode("utf-8")
                head = (
                    f"POST /v1/disambiguate HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode("ascii")
                reader, writer = await asyncio.open_connection(host, port)
                # Half a body: the request is provably in flight.
                writer.write(head + body[:16])
                await writer.drain()
                await asyncio.sleep(0.05)

                server.request_drain()
                drain_task = asyncio.create_task(server.run_until_drained())

                refused = False
                for _ in range(200):
                    await asyncio.sleep(0.01)
                    try:
                        _, probe = await asyncio.open_connection(host, port)
                    except OSError:
                        refused = True
                        break
                    probe.close()
                assert refused, "listener kept accepting during drain"

                # The in-flight request still completes, whole.
                writer.write(body[16:])
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await drain_task
                return raw, app

        raw, app = run(go())
        assert raw.split(b"\r\n")[0] == b"HTTP/1.1 200 OK"
        assert b'"status": "ok"' in raw
        assert app.metrics.counter("server_drains") >= 1
        assert app.metrics.counter("drain_cancelled") == 0

    def test_draining_app_refuses_new_work_with_503(
        self, make_app, figure1_xml
    ):
        async def go():
            app = make_app()
            async with running(app) as server:
                app.begin_drain()
                health = await request(server, get("/healthz"))
                work = await request(server, disambiguate(figure1_xml))
                return health, work

        health, work = run(go())
        assert health.status == 503
        assert health.json()["status"] == "draining"
        assert work.status == 503
        assert work.json()["envelope"]["stage"] == "admission"

    def test_sigterm_drains_the_daemon_and_exits_zero(self):
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            announce = proc.stderr.readline()
            assert "repro-serve listening on" in announce
            host, port = announce.strip().rsplit(" ", 1)[1].rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=30) as s:
                s.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                data = b""
                while chunk := s.recv(4096):
                    data += chunk
            assert data.split(b"\r\n")[0] == b"HTTP/1.1 200 OK"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestOverridesMatchBatchSemantics:
    def test_override_equals_reconfigured_default(self, make_app, figure1_xml):
        """A per-request override answers exactly like a server whose
        *default* config is that override — same knob, same bytes."""

        async def served_record(app, payload):
            async with running(app) as server:
                response = await request(server, payload)
                return response.body.split(b"\n")[-3]

        overridden = run(served_record(
            make_app(),
            disambiguate(figure1_xml, name="films", config={"radius": 1}),
        ))
        reconfigured = run(served_record(
            make_app(config=XSDFConfig(sphere_radius=1)),
            disambiguate(figure1_xml, name="films"),
        ))
        assert overridden == reconfigured
