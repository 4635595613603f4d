"""End-to-end tests for the ``repro.serve`` archive service.

Each test runs a real :class:`ArchiveServer` on a loopback port and
drives it with :class:`ServeClient` over actual sockets — the
coalescing, caching, and error-mapping behavior under test is exactly
what production requests would exercise.
"""

import io
import json
import threading

import pytest

from repro.api import EngineOptions, SAGeDataset
from repro.core.errors import CorruptArchiveError
from repro.genomics import fastq
from repro.serve import ArchiveServer, ServeClient
from repro.serve.server import REQUEST_OPTION_KEYS

BLOCK_READS = 24


@pytest.fixture(scope="module")
def served_archive(tmp_path_factory, rs3_small):
    path = tmp_path_factory.mktemp("serve") / "reads.sage"
    dataset = SAGeDataset.from_fastq(
        rs3_small.read_set, reference=rs3_small.reference,
        options=EngineOptions(block_reads=BLOCK_READS))
    dataset.save(path)
    buffer = io.StringIO()
    with SAGeDataset.open(path) as session:
        session.to_fastq(buffer)
        n_blocks = session.archive.n_blocks
    assert n_blocks >= 4
    return {"path": path, "fastq": buffer.getvalue(),
            "n_blocks": n_blocks}


@pytest.fixture()
def server(served_archive):
    with ArchiveServer([str(served_archive["path"])], port=0) as srv:
        srv.start()
        yield srv


@pytest.fixture()
def client(server):
    with ServeClient(server.host, server.port) as c:
        yield c


class TestEndpoints:
    def test_archives_listing(self, client, served_archive):
        info = client.get_json("/archives")
        [entry] = info["archives"]
        assert entry["name"] == "reads"
        assert entry["n_blocks"] == served_archive["n_blocks"]
        assert entry["format_version"] == 4

    def test_inspect_reports_size_estimates(self, client,
                                            served_archive):
        info = client.get_json("/inspect")
        assert len(info["blocks"]) == served_archive["n_blocks"]
        assert info["decoded_nbytes_estimate_total"] > 0
        offsets = [b["first_read"] for b in info["blocks"]]
        assert offsets == sorted(offsets)
        for block in info["blocks"]:
            assert block["decoded_nbytes_estimate"] > 0
            assert block["crc32"] is not None

    def test_estimate_is_the_cache_charge(self, server, client,
                                          served_archive):
        """``/inspect`` prices exactly the buffers the cache is charged
        for: a fully-selected block of a fixed-length archive costs
        what its estimate said, to the byte."""
        with SAGeDataset.open(served_archive["path"]) as session:
            assert session.archive.fixed_length
        info = client.get_json("/inspect")
        client.post_json("/cache/clear", {})
        charged = 0
        for block in info["blocks"]:
            client.get_text(f"/block/{block['index']}")
            now = client.get_json("/stats")["cache"]["current_bytes"]
            assert now - charged == block["decoded_nbytes_estimate"]
            charged = now
        assert charged == info["decoded_nbytes_estimate_total"]
        assert charged == sum(server.cache.get(key).nbytes
                              for key in server.cache.keys())

    def test_reads_slice_the_cached_columns(self, server, client):
        """``/reads`` and ``/block`` render from the cached block's
        columns: no ``Read`` is built to serve FASTQ."""
        client.post_json("/cache/clear", {})
        client.get_text(f"/reads/{BLOCK_READS + 3}-{BLOCK_READS + 6}")
        client.get_text("/block/1")
        [key] = server.cache.keys()
        assert server.cache.get(key)._views is None
        client.get_json("/block/1?format=json")      # asks for reads
        assert len(server.cache.get(key)._views) == BLOCK_READS

    def test_block_fastq_roundtrip(self, client, served_archive):
        text = "".join(
            client.get_text(f"/block/{i}")
            for i in range(served_archive["n_blocks"]))
        assert text == served_archive["fastq"]

    def test_block_json_format(self, client):
        info = client.get_json("/block/1?format=json")
        assert info["block"] == 1
        assert info["first_read"] == BLOCK_READS
        first = info["reads"][0]
        assert first["index"] == BLOCK_READS
        assert set(first) == {"index", "header", "sequence", "quality"}

    def test_block_stream_selection(self, client):
        full = client.get_text("/block/0")
        seq_only = client.get_text("/block/0?streams=sequence")
        assert seq_only != full
        # Same sequences, placeholder qualities and fallback headers.
        assert [l for l in seq_only.splitlines()[1::4]] == \
            [l for l in full.splitlines()[1::4]]

    def test_block_out_of_range_404(self, client, served_archive):
        status, body = client.get(
            f"/block/{served_archive['n_blocks']}")
        assert status == 404
        assert "out of range" in json.loads(body)["error"]

    def test_bad_streams_400(self, client):
        status, body = client.get("/block/0?streams=bogus")
        assert status == 400
        assert "unknown stream group" in json.loads(body)["error"]

    def test_reads_range_cross_block(self, client, served_archive):
        start, stop = BLOCK_READS - 5, BLOCK_READS + 5
        text = client.get_text(f"/reads/{start}-{stop}")
        expected_lines = served_archive["fastq"].splitlines(True)
        expected = "".join(expected_lines[4 * start:4 * stop])
        assert text == expected

    def test_reads_whole_archive(self, client, served_archive):
        n_reads = client.get_json("/archives")["archives"][0]["n_reads"]
        text = client.get_text(f"/reads/0-{n_reads}")
        assert text == served_archive["fastq"]

    def test_reads_invalid_range_400(self, client):
        assert client.get("/reads/5-5")[0] == 400
        assert client.get("/reads/0-999999")[0] == 400

    def test_analyze_mapping_rate(self, client):
        status, info = client.post_json(
            "/analyze", {"sinks": ["mapping-rate"]})
        assert status == 200
        result = info["results"]["mapping-rate"]
        assert result["n_reads"] == result["n_mapped"] + \
            result["n_unmapped"]
        assert info["stream"]["blocks"] > 0

    def test_analyze_unknown_sink_400(self, client):
        status, info = client.post_json("/analyze",
                                        {"sinks": ["nope"]})
        assert status == 400
        assert "unknown sink" in info["error"]

    def test_analyze_duplicate_sinks_400(self, client):
        status, info = client.post_json(
            "/analyze", {"sinks": ["property", "property"]})
        assert status == 400

    def test_analyze_options_override(self, client):
        status, info = client.post_json(
            "/analyze", {"sinks": ["mapping-rate"],
                         "options": {"workers": 2}})
        assert status == 200

    @pytest.mark.parametrize("field,value", [
        ("streams", "sequence"), ("block_retries", 1),
        ("block_timeout", 1.5)])
    def test_analyze_removed_option_400(self, client, field, value):
        # What a pass decodes is its sinks' requires, a pooled failure is
        # retried once, and nothing times a block out: none of the three
        # is an option, so a request naming one is told which keys it
        # may set.
        status, info = client.post_json(
            "/analyze", {"sinks": ["mapping-rate"],
                         "options": {field: value}})
        assert status == 400
        assert info["error"].startswith(f"unknown option(s) {field};")
        assert info["error"].endswith(
            "requests may override: backend, on_error, workers")

    def test_analyze_unknown_option_400(self, client):
        status, info = client.post_json(
            "/analyze", {"sinks": ["mapping-rate"],
                         "options": {"level": "O1"}})
        assert status == 400
        assert "unknown option" in info["error"]

    def test_analyze_invalid_option_value_400(self, client):
        status, info = client.post_json(
            "/analyze", {"sinks": ["mapping-rate"],
                         "options": {"workers": -3}})
        assert status == 400

    @pytest.mark.parametrize("field,value", [
        ("workers", 2.5), ("workers", "2")])
    def test_analyze_non_integral_option_400(self, client, field, value):
        # Validated at the boundary, not inside ProcessPoolExecutor (a
        # 500).
        status, info = client.post_json(
            "/analyze", {"sinks": ["mapping-rate"],
                         "options": {field: value}})
        assert status == 400
        assert info["error"].startswith(f"invalid options: {field} must "
                                        f"be an integer")

    def test_request_overrides_run_on_a_sibling_session(
            self, client, served_archive):
        # What /analyze does with its overrides: a sibling session over
        # the parent's archive and decoder, byte-identical to it.
        with SAGeDataset.open(served_archive["path"]) as parent:
            sibling = SAGeDataset(
                parent.archive, decompressor=parent.decompressor(),
                options=parent.options.replace(workers=2))
            buffer = io.StringIO()
            sibling.to_fastq(buffer)
            assert buffer.getvalue() == served_archive["fastq"]
            assert sibling.decompressor() is parent.decompressor()
        # The kernel is the operator's choice, not a request's.
        assert REQUEST_OPTION_KEYS == {"workers", "backend", "on_error"}
        status, info = client.post_json(
            "/analyze", {"sinks": ["mapping-rate"],
                         "options": {"codec": "python"}})
        assert status == 400
        assert "unknown option" in info["error"]
        assert client.get_text("/block/0?codec=fortran") \
            == client.get_text("/block/0")

    def test_stats_shape(self, client):
        client.get_text("/block/0")
        info = client.get_json("/stats")
        assert info["requests"] >= 1
        assert "/block" in info["endpoints"]
        window = info["endpoints"]["/block"]
        assert window["p50_ms"] <= window["p99_ms"] or \
            window["count"] == 1
        assert set(info["cache"]) >= {"hits", "misses", "hit_rate"}

    def test_unknown_endpoint_404(self, client):
        status, body = client.get("/nope")
        assert status == 404

    def test_wrong_method_405(self, client):
        status, _ = client._request("POST", "/archives")
        assert status == 405
        status, _ = client._request("GET", "/cache/clear")
        assert status == 405

    def test_bad_json_body_400(self, client):
        status, raw = client._request(
            "POST", "/analyze", body=b"{not json",
            headers={"Content-Type": "application/json"})
        assert status == 400

    def test_cache_clear(self, client):
        client.get_text("/block/0")
        status, info = client.post_json("/cache/clear", {})
        assert status == 200
        assert info["cleared"] >= 1


class TestCacheAndCoalescing:
    def test_repeat_requests_hit_cache(self, server, client):
        client.post_json("/cache/clear", {})
        client.get_text("/block/0")
        decodes_before = client.get_json("/stats")["decodes"]
        for _ in range(5):
            client.get_text("/block/0")
        stats = client.get_json("/stats")
        assert stats["decodes"] == decodes_before
        assert stats["cache"]["hits"] >= 5

    def test_selection_has_its_own_cache_entry(self, server, client):
        client.post_json("/cache/clear", {})
        client.get_text("/block/1")
        decodes = client.get_json("/stats")["decodes"]
        client.get_text("/block/1?streams=sequence")
        assert client.get_json("/stats")["decodes"] == decodes + 1

    def test_same_block_burst_coalesces_to_one_decode(self, server):
        n_clients = 32
        before = ServeClient(server.host, server.port)
        before.post_json("/cache/clear", {})
        stats_before = before.get_json("/stats")
        barrier = threading.Barrier(n_clients)
        bodies = []
        errors = []

        def worker():
            try:
                with ServeClient(server.host, server.port) as c:
                    barrier.wait(timeout=10)
                    bodies.append(c.get_text("/block/2"))
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker)
                   for _ in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert len(set(bodies)) == 1 and len(bodies) == n_clients
        stats_after = before.get_json("/stats")
        # The heart of the PR: a 32-client burst on one cold block
        # performs exactly one decode; everyone else coalesced onto it
        # or hit the cache it filled.
        assert stats_after["decodes"] - stats_before["decodes"] == 1
        joined = (stats_after["coalesced"] - stats_before["coalesced"]) \
            + (stats_after["cache"]["hits"]
               - stats_before["cache"]["hits"])
        assert joined == n_clients - 1
        before.close()

    def test_tiny_cache_evicts(self, served_archive):
        with ArchiveServer([str(served_archive["path"])], port=0,
                           cache_bytes=15_000) as srv:
            srv.start()
            with ServeClient(srv.host, srv.port) as c:
                for _ in range(3):
                    for i in range(served_archive["n_blocks"]):
                        c.get_text(f"/block/{i}")
                stats = c.get_json("/stats")
        assert stats["cache"]["evictions"] > 0
        assert stats["cache"]["current_bytes"] <= 15_000

    def test_byte_identity_under_concurrent_load(self, server,
                                                 served_archive):
        n_blocks = served_archive["n_blocks"]
        stop = threading.Event()
        errors = []

        def background_load(seed):
            try:
                with ServeClient(server.host, server.port) as c:
                    i = seed
                    while not stop.is_set():
                        c.get_text(f"/block/{i % n_blocks}")
                        i += 3
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=background_load, args=(s,))
                   for s in range(4)]
        for t in threads:
            t.start()
        try:
            with ServeClient(server.host, server.port) as c:
                text = "".join(c.get_text(f"/block/{i}")
                               for i in range(n_blocks))
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
        assert not errors
        assert text == served_archive["fastq"]


class TestErrorMapping:
    def test_corrupt_block_maps_to_500_with_context(self, tmp_path,
                                                    rs3_small):
        path = tmp_path / "damaged.sage"
        dataset = SAGeDataset.from_fastq(
            rs3_small.read_set, reference=rs3_small.reference,
            options=EngineOptions(block_reads=BLOCK_READS))
        dataset.save(path)
        with SAGeDataset.open(path) as session:
            target = 2
            entry = session.archive.block_index()[target]
        blob = bytearray(path.read_bytes())
        blob[entry.offset + 7] ^= 0xFF
        path.write_bytes(bytes(blob))
        with ArchiveServer([str(path)], port=0) as srv:
            srv.start()
            with ServeClient(srv.host, srv.port) as c:
                status, body = c.get(f"/block/{target}")
                info = json.loads(body)
                assert status == 500
                assert info["error_type"] in ("CorruptArchiveError",
                                              "BlockDecodeError")
                assert info["block_index"] == target
                # Healthy blocks still serve around the damage.
                assert c.get("/block/0")[0] == 200
                stats = c.get_json("/stats")
                assert stats["errors"] >= 1

    def test_boundary_is_structural(self, server, client, monkeypatch):
        # No handler has to remember a decorator: _dispatch, the one
        # caller of every handler, maps whatever a bare coroutine raises.
        async def damaged(request):
            raise CorruptArchiveError("x", block_index=3, stream="mpa")

        async def broken(request):
            raise RuntimeError("boom")

        monkeypatch.setattr(server, "_handle_archives", damaged)
        monkeypatch.setattr(server, "_handle_cache_clear", broken)
        status, body = client.get("/archives")
        assert status == 500
        assert json.loads(body) == {
            "error": "CorruptArchiveError: x (block 3, stream 'mpa')",
            "status": 500, "error_type": "CorruptArchiveError",
            "block_index": 3, "stream": "mpa"}
        status, info = client.post_json("/cache/clear", {})
        assert status == 500
        assert info == {"error": "internal error: RuntimeError: boom",
                        "status": 500}
        assert client.get_json("/stats")["errors"] == 2

    def test_failed_decode_is_not_cached(self, tmp_path, rs3_small):
        path = tmp_path / "damaged2.sage"
        dataset = SAGeDataset.from_fastq(
            rs3_small.read_set, reference=rs3_small.reference,
            options=EngineOptions(block_reads=BLOCK_READS))
        dataset.save(path)
        with SAGeDataset.open(path) as session:
            entry = session.archive.block_index()[1]
        blob = bytearray(path.read_bytes())
        blob[entry.offset + 3] ^= 0xFF
        path.write_bytes(bytes(blob))
        with ArchiveServer([str(path)], port=0) as srv:
            srv.start()
            with ServeClient(srv.host, srv.port) as c:
                assert c.get("/block/1")[0] == 500
                assert c.get("/block/1")[0] == 500
                stats = c.get_json("/stats")
        # Both requests attempted a decode: failures never populate
        # the cache or stick in the single-flight table.
        assert stats["decodes"] == 0
        assert srv.final_stats["inflight"] == 0


class TestMalformedRequests:
    """Whatever bytes a peer sends, ``read_request`` yields a request,
    ``None`` or an ``HTTPError`` — so the server answers 400 and keeps
    serving instead of dying on an unhandled parse error."""

    BAD = {
        "non-numeric-length":
            (b"POST /analyze HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
             "Content-Length"),
        "negative-length":
            (b"POST /analyze HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
             "Content-Length"),
        "long-request-line":
            (b"GET /" + b"a" * (1 << 17) + b" HTTP/1.1\r\n\r\n",
             "too long"),
        "long-header":
            (b"GET /archives HTTP/1.1\r\nX-Pad: " + b"p" * (1 << 17)
             + b"\r\n\r\n", "too long"),
        "short-body":
            (b"POST /analyze HTTP/1.1\r\nContent-Length: 50\r\n\r\n{}",
             "cut short"),
    }

    @staticmethod
    def _parse(payload: bytes):
        import asyncio

        from repro.serve.http import read_request

        async def parse():
            reader = asyncio.StreamReader()
            reader.feed_data(payload)
            reader.feed_eof()
            return await read_request(reader)
        return asyncio.run(parse())

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_parser_maps_bad_input_to_400(self, case):
        from repro.serve.http import HTTPError
        payload, fragment = self.BAD[case]
        with pytest.raises(HTTPError) as info:
            self._parse(payload)
        assert info.value.status == 400
        assert fragment in info.value.message

    def test_parser_returns_none_on_closed_peer(self):
        assert self._parse(b"") is None

    @pytest.mark.parametrize("case", ["non-numeric-length", "short-body"])
    def test_server_answers_400_and_survives(self, server, client, case):
        import socket
        payload, fragment = self.BAD[case]
        with socket.create_connection((server.host, server.port),
                                      timeout=30) as sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert fragment in json.loads(body)["error"]
        assert client.get("/archives")[0] == 200


class TestMultiArchive:
    def test_named_archives_and_selection(self, served_archive,
                                          tmp_path, rs2_small):
        other = tmp_path / "other.sage"
        SAGeDataset.from_fastq(
            rs2_small.read_set, reference=rs2_small.reference,
            options=EngineOptions(block_reads=BLOCK_READS)).save(other)
        specs = [f"first={served_archive['path']}", f"second={other}"]
        with ArchiveServer(specs, port=0) as srv:
            srv.start()
            assert srv.archive_names == ("first", "second")
            with ServeClient(srv.host, srv.port) as c:
                info = c.get_json("/archives")
                assert [a["name"] for a in info["archives"]] == \
                    ["first", "second"]
                # Ambiguous requests must name the archive.
                status, body = c.get("/block/0")
                assert status == 400
                assert "archive" in json.loads(body)["error"]
                assert c.get("/block/0?archive=first")[0] == 200
                assert c.get("/block/0?archive=second")[0] == 200
                assert c.get("/block/0?archive=third")[0] == 404

    def test_duplicate_names_rejected(self, served_archive):
        path = str(served_archive["path"])
        with pytest.raises(ValueError, match="duplicate"):
            ArchiveServer([path, path], port=0)


class TestLifecycle:
    def test_close_is_idempotent_and_snapshots_stats(self,
                                                     served_archive):
        srv = ArchiveServer([str(served_archive["path"])], port=0)
        srv.start()
        with ServeClient(srv.host, srv.port) as c:
            c.get_text("/block/0")
        first = srv.close()
        second = srv.close()
        assert first["requests"] >= 1
        assert second == first

    def test_server_without_start_closes_cleanly(self, served_archive):
        srv = ArchiveServer([str(served_archive["path"])], port=0)
        srv.close()

    def test_missing_archive_fails_fast(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ArchiveServer([str(tmp_path / "missing.sage")], port=0)
