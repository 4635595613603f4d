"""End-to-end tests for the ``repro.serve`` archive service.

Each test runs a real :class:`ArchiveServer` on a loopback port and
drives it with :class:`ServeClient` over actual sockets — the
coalescing, caching, and error-mapping behavior under test is exactly
what production requests would exercise.
"""

import io
import json
import threading
import time
from contextlib import contextmanager

import pytest

from repro.api import EngineOptions, SAGeDataset
from repro.core.container import VERSION
from repro.core.errors import BlockDecodeError, CorruptArchiveError
from repro.core.selection import StreamSelection
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
        assert entry["format_version"] == VERSION

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

    def test_inspect_is_the_description(self, client, served_archive):
        """``/inspect`` is ``sage inspect --json``'s object plus the
        served ``archive`` and ``path``, and still carries what the
        server's own projection of it reported: the shape, each block's
        index entry with its ``first_read``, and the estimate total."""
        from repro.api import describe
        info = client.get_json("/inspect")
        path = served_archive["path"]
        with SAGeDataset.open(path) as session:
            expected = json.loads(json.dumps(describe(session)))
            entries = session.archive.block_index()
            shape = (session.format_version, session.n_blocks,
                     session.n_reads, session.archive.block_reads)
        assert info == expected | {"archive": "reads", "path": str(path)}
        assert (info["format_version"], info["n_blocks"], info["n_reads"],
                info["block_reads"]) == shape
        assert [(b["index"], b["n_reads"], b["first_read"], b["bytes"],
                 b["offset"], b["crc32"]) for b in info["blocks"]] \
            == [(i, e.n_reads, e.first_read, e.nbytes, e.offset, e.crc32)
                for i, e in enumerate(entries)]
        assert info["decoded_nbytes_estimate_total"] == sum(
            b["decoded_nbytes_estimate"] for b in info["blocks"])

    def test_estimate_is_the_cache_charge(self, server, client,
                                          served_archive):
        """``/inspect`` prices exactly what the cache is charged for a
        block: its FASTQ body, ``2 * bases + 6 * n_reads + header
        bytes``, to the byte on a fixed-length archive with fallback
        names."""
        with SAGeDataset.open(served_archive["path"]) as session:
            assert session.archive.fixed_length
        info = client.get_json("/inspect")
        client.post_json("/cache/clear", {})
        charged = 0
        for block in info["blocks"]:
            body = client.get_text(f"/block/{block['index']}")
            lines = body.splitlines()
            bases = sum(map(len, lines[1::4]))
            header_bytes = sum(len(line) - 1 for line in lines[0::4])
            assert block["decoded_nbytes_estimate"] == len(body) \
                == 2 * bases + 6 * block["n_reads"] + header_bytes
            now = client.get_json("/stats")["cache"]["current_bytes"]
            assert now - charged == block["decoded_nbytes_estimate"]
            charged = now
        assert charged == info["decoded_nbytes_estimate_total"]
        stats = client.get_json("/stats")
        assert stats["decodes"] == len(info["blocks"])
        assert stats["cache"]["evictions"] == 0

    def test_reads_slice_the_cached_columns(self, server, client):
        """``/reads`` and ``/block`` are views of one cached value, the
        block's FASTQ bytes; the JSON document is a second entry."""
        client.post_json("/cache/clear", {})
        decodes = client.get_json("/stats")["decodes"]
        client.get_text(f"/reads/{BLOCK_READS + 3}-{BLOCK_READS + 6}")
        body = client.get("/block/1")[1]
        stats = client.get_json("/stats")
        assert stats["decodes"] == decodes + 1
        assert stats["cache"]["current_bytes"] == len(body)
        document = client.get("/block/1?format=json")[1]
        stats = client.get_json("/stats")
        assert stats["decodes"] == decodes + 2
        assert stats["cache"]["current_bytes"] == len(body) + len(document)
        assert client.post_json("/cache/clear", {}) == (200, {"cleared": 2})

    def test_a_hit_renders_nothing(self, server, client, monkeypatch):
        """A block is rendered once, at its miss: later ``/block`` hits
        and ``/reads`` ranges inside it are cut from the cached bytes."""
        render = fastq.render
        calls = []

        def counted(*args):
            calls.append(args)
            return render(*args)

        monkeypatch.setattr(fastq, "render", counted)
        client.post_json("/cache/clear", {})
        first = client.get_text("/block/1")
        assert len(calls) == 1
        for _ in range(20):
            assert client.get_text("/block/1") == first
        assert client.get_text(
            f"/reads/{BLOCK_READS + 3}-{BLOCK_READS + 6}") \
            == "".join(first.splitlines(True)[4 * 3:4 * 6])
        assert len(calls) == 1

    def test_block_fastq_roundtrip(self, client, served_archive):
        text = "".join(
            client.get_text(f"/block/{i}")
            for i in range(served_archive["n_blocks"]))
        assert text == served_archive["fastq"]

    @pytest.mark.parametrize("streams", [None, "sequence"])
    def test_block_json_is_the_document(self, client, served_archive,
                                        streams):
        """``?format=json`` answers the block's reads as one
        ``sort_keys`` document, byte for byte; a sequence-only request
        has no scores."""
        query = "" if streams is None else f"&streams={streams}"
        select = None if streams is None \
            else StreamSelection.from_query(streams)
        with SAGeDataset.open(served_archive["path"]) as session:
            for index in range(served_archive["n_blocks"]):
                read_set = session.decode_block(index, select=select)
                base = index * BLOCK_READS
                expected = json.dumps(
                    {"archive": "reads", "block": index,
                     "first_read": base,
                     "reads": [{"index": base + i,
                                "header": read.header or f"read{base + i}",
                                "sequence": read.text,
                                "quality": read.quality_text
                                if read.quality is not None else None}
                               for i, read in enumerate(read_set)]},
                    sort_keys=True).encode("utf-8")
                status, body = client.get(
                    f"/block/{index}?format=json{query}")
                assert status == 200 and body == expected
                scoreless = {read["quality"] is None
                             for read in json.loads(body)["reads"]}
                assert scoreless == {streams is not None}

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

    @pytest.mark.parametrize("fmt", ["sam", "", "JSON"])
    def test_unknown_format_400(self, client, fmt):
        # The server renders two bodies; any other name is the
        # client's mistake, not a FASTQ body.
        status, body = client.get(f"/block/0?format={fmt}")
        assert status == 400
        error = json.loads(body)["error"]
        assert repr(fmt) in error
        assert "'fastq'" in error and "'json'" in error
        assert client.get_text("/block/0?format=fastq") \
            == client.get_text("/block/0")

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

    @pytest.mark.parametrize("streams", [None, "sequence"])
    def test_reads_at_every_block_boundary(self, client, served_archive,
                                           streams):
        """``/reads/{a}-{b}`` with ``a`` and ``b`` on every block
        boundary and one read either side of it (the whole archive
        included) equals the same records of a whole decode."""
        select = None if streams is None \
            else StreamSelection.from_query(streams)
        with SAGeDataset.open(served_archive["path"]) as session:
            offsets = [entry.first_read
                       for entry in session.archive.block_index()]
            n_reads = session.archive.n_reads
            if streams is None:
                text = served_archive["fastq"]
            else:
                text = "".join(
                    fastq.write(session.decode_block(i, select=select),
                                first)
                    for i, first in enumerate(offsets))
        records = text.splitlines(True)
        points = sorted({min(max(bound + step, 0), n_reads)
                         for bound in [*offsets, n_reads]
                         for step in (-1, 0, 1)})
        query = "" if streams is None else f"?streams={streams}"
        for start in points:
            for stop in points:
                if start < stop:
                    assert client.get_text(
                        f"/reads/{start}-{stop}{query}") \
                        == "".join(records[4 * start:4 * stop]), \
                        (start, stop)

    def test_reads_whole_archive(self, client, served_archive):
        n_reads = client.get_json("/archives")["archives"][0]["n_reads"]
        text = client.get_text(f"/reads/0-{n_reads}")
        assert text == served_archive["fastq"]

    def test_reads_invalid_range_400(self, client):
        assert client.get("/reads/5-5")[0] == 400
        assert client.get("/reads/0-999999")[0] == 400

    @pytest.mark.parametrize("fmt", ["json", "sam", ""])
    def test_reads_unknown_format_400(self, client, fmt):
        # /reads cuts records out of FASTQ bodies: FASTQ is the one
        # format it answers, and asking for another is a 400 naming it.
        status, body = client.get(f"/reads/0-3?format={fmt}")
        assert status == 400
        error = json.loads(body)["error"]
        assert repr(fmt) in error and "'fastq'" in error
        assert client.get_text("/reads/0-3?format=fastq") \
            == client.get_text("/reads/0-3")

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
                         "options": {"workers": 1, "backend": "serial",
                                     "on_error": "skip"}})
        assert status == 200

    @pytest.mark.parametrize("workers", [2, 3])
    def test_analyze_workers_above_the_server_400(self, client,
                                                  monkeypatch, workers):
        # Decode pools outlive the request: a request may not start
        # more workers than the operator gave the server (1 here), and
        # the refusal comes before any pool is constructed.
        from repro.pipeline import executor as executor_mod

        built = []
        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor",
                            lambda *args, **kwargs: built.append(args))
        monkeypatch.setattr(executor_mod, "_pools", {})
        status, info = client.post_json(
            "/analyze", {"sinks": ["mapping-rate"],
                         "options": {"workers": workers}})
        assert status == 400
        assert info["error"] == (f"invalid options: workers {workers} "
                                 f"exceeds the server's 1")
        assert built == []

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
        ("workers", 2.5), ("workers", "2"), ("workers", True)])
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


class TestLatencyWindow:
    def test_keeps_the_last_window_of_samples(self):
        """A full window drops its oldest sample per record; what it
        reports equals a list oracle over the last 4,096 samples."""
        import random

        from repro.serve.stats import _WINDOW_SAMPLES, LatencyWindow
        assert _WINDOW_SAMPLES == 4096
        rng = random.Random(5)
        samples = [rng.uniform(0.0, 9.0) for _ in range(5000)]
        window = LatencyWindow()
        for sample in samples:
            window.record(sample)
        kept = samples[-_WINDOW_SAMPLES:]
        assert list(window._samples) == kept

        def oracle(q):
            ordered = sorted(kept)
            rank = min(len(ordered) - 1,
                       max(0, round(q / 100.0 * (len(ordered) - 1))))
            return ordered[rank]

        for q in (0, 1, 50, 90, 99, 100):
            assert window.percentile(q) == oracle(q)
        assert window.to_dict() == {
            "count": 5000, "p50_ms": round(oracle(50), 3),
            "p99_ms": round(oracle(99), 3),
            "mean_ms": round(sum(samples) / 5000, 3)}


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

@pytest.fixture(scope="module")
def bodies(served_archive):
    """``{(block, fmt): body}``: every block as a default server sends
    it, FASTQ and JSON."""
    with ArchiveServer([str(served_archive["path"])], port=0) as srv:
        srv.start()
        with ServeClient(srv.host, srv.port) as c:
            return {(i, fmt): c.get(_block_target(i, fmt))[1]
                    for i in range(served_archive["n_blocks"])
                    for fmt in ("fastq", "json")}


def _block_target(index, fmt="fastq"):
    return f"/block/{index}" + ("?format=json" if fmt == "json" else "")


@contextmanager
def _budgeted(path, cache_bytes):
    """A client of a live server whose cache holds ``cache_bytes``."""
    with ArchiveServer([str(path)], port=0, cache_bytes=cache_bytes) as srv:
        srv.start()
        with ServeClient(srv.host, srv.port) as c:
            yield c


def _damaged_copy(source, target, block):
    """``source`` with one payload byte of ``block`` flipped."""
    with SAGeDataset.open(source) as session:
        offset = session.archive.block_index()[block].offset
    blob = bytearray(source.read_bytes())
    blob[offset + 3] ^= 0xFF
    target.write_bytes(bytes(blob))
    return target


class TestServerCache:
    """The server's body cache, seen only through ``/stats`` and
    ``/cache/clear``: an LRU over the bodies it sends, charged their
    length against ``cache_bytes``, with one pending render per key."""

    @staticmethod
    def _fetch(client, bodies, *blocks, fmt="fastq"):
        for index in blocks:
            status, body = client.get(_block_target(index, fmt))
            assert status == 200 and body == bodies[index, fmt]

    @staticmethod
    def _cache(client):
        stats = client.get_json("/stats")
        return {**stats["cache"], "decodes": stats["decodes"],
                "coalesced": stats["coalesced"]}

    def test_hit_rate_with_no_lookups(self, served_archive):
        with _budgeted(served_archive["path"], 1 << 20) as c:
            assert c.get_json("/stats")["cache"] == {
                "hits": 0, "misses": 0, "evictions": 0, "rejected": 0,
                "current_bytes": 0, "peak_bytes": 0, "hit_rate": 0.0}

    def test_stats_cache_keys(self, served_archive, bodies):
        with _budgeted(served_archive["path"], 1 << 20) as c:
            self._fetch(c, bodies, 0, 0, 0, 0)
            cache = c.get_json("/stats")["cache"]
        assert set(cache) == {"hits", "misses", "evictions", "rejected",
                              "current_bytes", "peak_bytes", "hit_rate"}
        assert (cache["hits"], cache["misses"], cache["hit_rate"]) \
            == (3, 1, 0.75)

    def test_miss_then_hit(self, served_archive, bodies):
        with _budgeted(served_archive["path"], 1 << 20) as c:
            self._fetch(c, bodies, 0)
            first = self._cache(c)
            self._fetch(c, bodies, 0)
            second = self._cache(c)
        assert (first["hits"], first["misses"], first["decodes"]) \
            == (0, 1, 1)
        assert (second["hits"], second["misses"], second["decodes"]) \
            == (1, 1, 1)
        assert second["hit_rate"] == 0.5
        assert second["current_bytes"] == len(bodies[0, "fastq"])

    def test_lru_eviction_order(self, served_archive, bodies):
        size = [len(bodies[i, "fastq"]) for i in range(4)]
        budget = size[1] + size[2] + size[3]
        assert size[0] <= min(size[1:])
        with _budgeted(served_archive["path"], budget) as c:
            self._fetch(c, bodies, 0, 1, 2, 3)     # 3 evicts 0
            cache = self._cache(c)
            assert (cache["evictions"], cache["current_bytes"]) \
                == (1, budget)
            self._fetch(c, bodies, 1, 2, 3)        # hits, 1 now LRU
            assert self._cache(c)["hits"] == 3
            self._fetch(c, bodies, 0)              # a miss, evicts 1
            cache = self._cache(c)
            assert (cache["misses"], cache["evictions"]) == (5, 2)
            self._fetch(c, bodies, 2, 3, 0)
            assert self._cache(c)["hits"] == 6
            self._fetch(c, bodies, 1)
            cache = self._cache(c)
        assert (cache["misses"], cache["decodes"]) == (6, 6)
        assert cache["current_bytes"] <= budget

    def test_bodies_in_lru_order(self, served_archive, bodies):
        with ArchiveServer([str(served_archive["path"])], port=0) as srv:
            srv.start()
            with ServeClient(srv.host, srv.port) as c:
                self._fetch(c, bodies, 0, 1, 0)
                order = [key[1] for key in srv._bodies]
        assert order == [1, 0]

    def test_hit_refreshes_recency(self, served_archive, bodies):
        size = [len(bodies[i, "fastq"]) for i in range(4)]
        budget = size[1] + size[2] + size[3]
        assert size[0] <= size[2]
        with _budgeted(served_archive["path"], budget) as c:
            self._fetch(c, bodies, 1, 2, 3, 1)     # 2 becomes LRU
            self._fetch(c, bodies, 0)              # evicts 2 alone
            cache = self._cache(c)
            assert (cache["hits"], cache["evictions"]) == (1, 1)
            self._fetch(c, bodies, 1, 3)
            assert self._cache(c)["hits"] == 3
            self._fetch(c, bodies, 2)
            cache = self._cache(c)
        assert (cache["hits"], cache["misses"]) == (3, 5)

    def test_oversized_body_rejected(self, served_archive, bodies):
        """A body larger than the whole budget is served, counted in
        ``rejected`` and not stored: it evicts nothing."""
        budget = len(bodies[0, "fastq"])
        assert len(bodies[0, "json"]) > budget
        with _budgeted(served_archive["path"], budget) as c:
            self._fetch(c, bodies, 0)
            self._fetch(c, bodies, 0, 0, fmt="json")
            cache = self._cache(c)
            assert (cache["rejected"], cache["evictions"]) == (2, 0)
            assert cache["current_bytes"] == budget
            self._fetch(c, bodies, 0)
            cache = self._cache(c)
        assert (cache["hits"], cache["misses"], cache["decodes"]) \
            == (1, 3, 3)

    def test_large_body_evicts_several(self, served_archive, bodies):
        size = [len(bodies[i, "fastq"]) for i in (1, 2)]
        document = len(bodies[0, "json"])
        budget = sum(size)
        assert size[0] < document <= budget
        with _budgeted(served_archive["path"], budget) as c:
            self._fetch(c, bodies, 1, 2)
            self._fetch(c, bodies, 0, fmt="json")
            cache = self._cache(c)
            assert (cache["evictions"], cache["current_bytes"]) \
                == (2, document)
            self._fetch(c, bodies, 1, 2)
            assert self._cache(c)["hits"] == 0

    def test_zero_budget_stores_nothing(self, served_archive, bodies):
        with _budgeted(served_archive["path"], 0) as c:
            self._fetch(c, bodies, 0, 0, 1)
            cache = self._cache(c)
        assert (cache["misses"], cache["decodes"], cache["rejected"]) \
            == (3, 3, 3)
        assert (cache["hits"], cache["current_bytes"],
                cache["peak_bytes"]) == (0, 0, 0)

    def test_negative_budget_rejected(self, served_archive):
        with pytest.raises(ValueError, match="cache capacity"):
            ArchiveServer([str(served_archive["path"])], port=0,
                          cache_bytes=-1)

    def test_clear_keeps_history(self, served_archive, bodies):
        """``/cache/clear`` drops the bodies, not the counters."""
        with _budgeted(served_archive["path"], 1 << 20) as c:
            self._fetch(c, bodies, 0, 1, 0)
            before = self._cache(c)
            assert c.post_json("/cache/clear", {}) == (200, {"cleared": 2})
            after = self._cache(c)
            assert after == {**before, "current_bytes": 0}
            self._fetch(c, bodies, 0)
            assert self._cache(c)["misses"] == before["misses"] + 1

    def test_peak_bytes_tracks_high_water(self, served_archive, bodies):
        high = sum(len(bodies[i, "fastq"]) for i in range(3))
        with _budgeted(served_archive["path"], 1 << 20) as c:
            self._fetch(c, bodies, 0, 1, 2)
            c.post_json("/cache/clear", {})
            self._fetch(c, bodies, 3)
            cache = self._cache(c)
        assert cache["peak_bytes"] == high
        assert cache["current_bytes"] == len(bodies[3, "fastq"])

    def test_failure_reaches_every_coalesced_waiter(
            self, served_archive, tmp_path, monkeypatch):
        """Waiters coalesced on a failing render all get its 500; the
        failure is neither cached nor left pending, so the next request
        renders again on its own."""
        from repro.serve import server as server_module
        render = server_module._render_block
        gate = threading.Event()
        calls = []

        def gated(*args):
            calls.append(args[1])
            gate.wait(timeout=30)
            return render(*args)

        monkeypatch.setattr(server_module, "_render_block", gated)
        path = _damaged_copy(served_archive["path"],
                             tmp_path / "damaged.sage", block=1)
        n_clients = 6
        answers = []

        def waiter(port):
            with ServeClient("127.0.0.1", port) as own:
                answers.append(own.get("/block/1"))

        with _budgeted(path, 1 << 20) as c:
            threads = [threading.Thread(target=waiter, args=(c.port,))
                       for _ in range(n_clients)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30
            while self._cache(c)["misses"] < n_clients:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            gate.set()
            for thread in threads:
                thread.join(timeout=30)
            cache = self._cache(c)
            assert c.get("/block/1") == answers[0]
            again = self._cache(c)
        assert len(answers) == n_clients and len(set(answers)) == 1
        status, body = answers[0]
        assert status == 500 and json.loads(body)["block_index"] == 1
        assert calls == [1, 1]
        assert (cache["coalesced"], cache["decodes"],
                cache["current_bytes"]) == (n_clients - 1, 0, 0)
        assert (again["coalesced"], again["misses"]) \
            == (n_clients - 1, n_clients + 1)

    def test_concurrent_misses_await_one_render(
            self, served_archive, bodies, monkeypatch):
        """Clients that miss one key while its render runs all await
        that render: one pool job, one decode, the rest coalesced."""
        from repro.serve import server as server_module
        render = server_module._render_block
        gate = threading.Event()
        calls = []

        def gated(*args):
            calls.append(args[1])
            gate.wait(timeout=30)
            return render(*args)

        monkeypatch.setattr(server_module, "_render_block", gated)
        n_clients = 8
        answers = []

        def waiter(port):
            with ServeClient("127.0.0.1", port) as own:
                answers.append(own.get("/block/2"))

        with _budgeted(served_archive["path"], 1 << 20) as c:
            threads = [threading.Thread(target=waiter, args=(c.port,))
                       for _ in range(n_clients)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 30
            while self._cache(c)["misses"] < n_clients:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            gate.set()
            for thread in threads:
                thread.join(timeout=30)
            cache = self._cache(c)
        assert calls == [2]
        assert answers == [(200, bodies[2, "fastq"])] * n_clients
        assert (cache["decodes"], cache["coalesced"], cache["misses"]) \
            == (1, n_clients - 1, n_clients)

    def test_follower_shares_the_leaders_body(
            self, served_archive, bodies, monkeypatch):
        """The first miss of a key starts its render; a second miss
        while it runs follows it and gets the very same bytes.  Driven
        on a loop of its own so the pending table can be seen between
        the two."""
        import asyncio

        from repro.serve import server as server_module
        render = server_module._render_block
        gate = threading.Event()

        def gated(*args):
            gate.wait(timeout=30)
            return render(*args)

        monkeypatch.setattr(server_module, "_render_block", gated)

        async def scenario(srv):
            selection = StreamSelection.all_streams()
            leader = asyncio.ensure_future(srv._block_body(
                "reads", 1, selection, "fastq"))
            await asyncio.sleep(0)
            follower = asyncio.ensure_future(srv._block_body(
                "reads", 1, selection, "fastq"))
            await asyncio.sleep(0)
            assert len(srv._pending) == 1 and srv.stats.coalesced == 1
            gate.set()
            first, second = await asyncio.gather(leader, follower)
            assert not srv._pending
            return first, second

        with ArchiveServer([str(served_archive["path"])], port=0) as srv:
            first, second = asyncio.run(scenario(srv))
            assert (srv.stats.decodes, srv.stats.misses) == (1, 2)
        assert first is second
        assert first == bodies[1, "fastq"]

    def test_failed_render_is_retired(self, served_archive, tmp_path):
        """A failed render raises its error to the awaiting request and
        leaves the pending table, so the next miss of the key leads a
        fresh render rather than joining the dead one."""
        import asyncio

        path = _damaged_copy(served_archive["path"],
                             tmp_path / "retired.sage", block=1)

        async def scenario(srv):
            selection = StreamSelection.all_streams()
            for _ in range(2):
                with pytest.raises(BlockDecodeError, match="block 1"):
                    await srv._block_body("retired", 1, selection, "fastq")
                assert not srv._pending

        with ArchiveServer([str(path)], port=0) as srv:
            asyncio.run(scenario(srv))
            assert (srv.stats.misses, srv.stats.coalesced,
                    srv.stats.decodes) == (2, 0, 0)
            assert srv.stats.to_dict()["cache"]["current_bytes"] == 0

    def test_cancelled_waiter_leaves_the_render_running(
            self, served_archive, bodies, monkeypatch):
        """A waiter cancelled mid-render (its connection torn down) does
        not cancel the render the other waiters of its key await.  No
        client can cancel a handler, so this drives ``_block_body`` on
        a loop of its own."""
        import asyncio

        from repro.serve import server as server_module
        render = server_module._render_block
        gate = threading.Event()

        def gated(*args):
            gate.wait(timeout=30)
            return render(*args)

        monkeypatch.setattr(server_module, "_render_block", gated)

        async def scenario(srv):
            selection = StreamSelection.all_streams()
            first, second = (asyncio.ensure_future(srv._block_body(
                "reads", 1, selection, "fastq")) for _ in range(2))
            await asyncio.sleep(0)
            first.cancel()
            gate.set()
            body = await second
            assert first.cancelled()
            return body

        with ArchiveServer([str(served_archive["path"])], port=0) as srv:
            assert asyncio.run(scenario(srv)) == bodies[1, "fastq"]
            cache = srv.stats.to_dict()["cache"]
            assert (srv.stats.decodes, srv.stats.coalesced) == (1, 1)
        assert cache["current_bytes"] == len(bodies[1, "fastq"])

    def test_distinct_keys_render_independently(
            self, served_archive, bodies, monkeypatch):
        """Two keys' renders run at once: neither waits on the other."""
        from repro.serve import server as server_module
        render = server_module._render_block
        both = threading.Barrier(2, timeout=30)

        def paired(*args):
            both.wait()
            return render(*args)

        monkeypatch.setattr(server_module, "_render_block", paired)
        answers = {}

        def fetch(port, index):
            with ServeClient("127.0.0.1", port) as own:
                answers[index] = own.get(f"/block/{index}")

        with _budgeted(served_archive["path"], 1 << 20) as c:
            threads = [threading.Thread(target=fetch, args=(c.port, i))
                       for i in (1, 2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            cache = self._cache(c)
        assert answers == {i: (200, bodies[i, "fastq"]) for i in (1, 2)}
        assert (cache["decodes"], cache["coalesced"], cache["misses"]) \
            == (2, 0, 2)


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

    def test_failed_decode_is_not_cached(self, tmp_path, served_archive):
        path = _damaged_copy(served_archive["path"],
                             tmp_path / "damaged2.sage", block=1)
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
        "many-headers":
            (b"GET /archives HTTP/1.1\r\n"
             + b"".join(b"X-%d: v\r\n" % i for i in range(101))
             + b"\r\n", "too many header lines"),
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

    def test_parser_takes_max_header_lines(self):
        from repro.serve.http import MAX_HEADER_LINES
        request = self._parse(
            b"GET /archives HTTP/1.1\r\n"
            + b"".join(b"X-%d: v\r\n" % i
                       for i in range(MAX_HEADER_LINES))
            + b"\r\n")
        assert len(request.headers) == MAX_HEADER_LINES

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

    def test_name_splits_at_the_first_equals(self, served_archive,
                                             tmp_path):
        """A name holds no ``=``, a path may: ``a=/data/run=5/x.sage``
        serves ``/data/run=5/x.sage`` as ``a``."""
        path = tmp_path / "run=5" / "x.sage"
        path.parent.mkdir()
        path.write_bytes(served_archive["path"].read_bytes())
        with ArchiveServer([f"a={path}"], port=0) as srv:
            srv.start()
            assert srv.archive_names == ("a",)
            with ServeClient(srv.host, srv.port) as c:
                [entry] = c.get_json("/archives")["archives"]
                assert c.get_json("/inspect")["path"] == str(path)
        assert (entry["name"], entry["path"]) == ("a", str(path))

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
