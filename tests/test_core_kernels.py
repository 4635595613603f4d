"""Unit + cross-kernel tests for the codec kernel layer.

The contract under test (``repro.core.kernels``): a kernel is a decode
strategy, and every registered kernel decodes identical reads from the
same bytes.  The fuzz classes compress randomized read sets (short/long,
indels, Ns, unmapped junk, quality on/off, all levels) once — the
encoder has one writer and no kernel — then decode the archive with
every registered kernel.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import EngineOptions, SAGeDataset
from repro.core import SAGeCompressor, SAGeConfig, SAGeDecompressor
from repro.core.bitio import BitIOError, BitReader, BitWriter
from repro.core.kernels import (available_kernels, gather_fields,
                                get_kernel, resolve_codec)
from repro.core.mismatch import OptLevel
from repro.core.prefix_codes import AssociationTable
from repro.genomics import sequence as seqmod
from repro.genomics.reads import Read, ReadSet

fields = st.lists(
    st.integers(min_value=0, max_value=56).flatmap(
        lambda w: st.tuples(st.integers(min_value=0,
                                        max_value=max(0, (1 << w) - 1)),
                            st.just(w))),
    min_size=0, max_size=80)


class TestPackFields:
    """Fields packed by ``BitWriter.write_fields`` come back through the
    batched ``gather_fields``."""

    @given(fields)
    def test_gather_roundtrip(self, pairs):
        pairs = [(v, w) for v, w in pairs if w > 0]
        writer = BitWriter()
        writer.write_fields([v for v, _ in pairs], [w for _, w in pairs])
        widths = np.array([w for _, w in pairs], dtype=np.int64)
        offsets = np.cumsum(widths) - widths
        got = gather_fields((writer.getvalue(), writer.bit_length),
                            offsets, widths)
        assert got.tolist() == [v for v, _ in pairs]

    def test_gather_past_end(self):
        with pytest.raises(BitIOError, match="mpa"):
            gather_fields((b"\x00", 8), [0], [9], name="mpa")


class TestWriteRun:
    def test_equivalent_to_loop(self):
        a, b = BitWriter(), BitWriter()
        values = list(range(16))
        for v in values:
            a.write(v, 5)
        b.write_run(np.array(values, dtype=np.uint8), 5)
        assert a.getvalue() == b.getvalue()
        assert a.bit_length == b.bit_length

    def test_invalid_value_fails_cleanly(self):
        w = BitWriter()
        w.write(1, 1)
        with pytest.raises(BitIOError):
            w.write_run([1, 2, 9], 3)
        # the valid prefix was committed, like a per-value loop
        assert w.bit_length == 1 + 2 * 3

    def test_slots(self):
        assert not hasattr(BitWriter(), "__dict__")
        assert not hasattr(BitReader(b""), "__dict__")


class TestFastReader:
    """The kernels' read path: every kernel decodes a block's streams
    through one ``BitReader(*block.streams[name], name=name)``, which
    carries the vectorized field, unary and past-end handling."""

    @given(fields)
    def test_field_sequence(self, pairs):
        w = BitWriter()
        for value, width in pairs:
            w.write(value, width)
        r = BitReader(w.getvalue(), w.bit_length, name="mbta")
        for value, width in pairs:
            assert r.read(width) == value
        assert r.remaining == 0

    @given(st.lists(st.integers(min_value=0, max_value=20), max_size=30))
    def test_unary_sequence(self, values):
        w = BitWriter()
        for v in values:
            w.write_unary(v)
        r = BitReader(w.getvalue(), w.bit_length, name="mpga")
        assert [r.read_unary() for _ in values] == values
        assert r.remaining == 0

    def test_past_end_context(self):
        r = BitReader(b"\x00", 4, name="mmpa")
        r.read(4)
        with pytest.raises(BitIOError, match=r"mmpa.*past end.*bit 4"):
            r.read(1)


class TestReaderErrorContext:
    """Satellite: BitReader past-end errors carry stream name + offset."""

    def test_named_reader_message(self):
        r = BitReader(b"\x00", 4, name="mmpga")
        r.read(3)
        with pytest.raises(BitIOError,
                           match=r"mmpga: read of 2 bits past end at "
                                 r"bit 3 \(stream is 4 bits\)"):
            r.read(2)

    def test_unnamed_reader_message(self):
        r = BitReader(b"", 0)
        with pytest.raises(BitIOError, match="bit stream"):
            r.read(1)

    def test_read_bytes_context(self):
        r = BitReader(b"\xab", name="unmapped")
        with pytest.raises(BitIOError, match="unmapped"):
            r.read_bytes(2)

    def test_decoder_truncation_names_stream(self, rs3_small):
        archive = SAGeCompressor(
            rs3_small.reference,
            SAGeConfig(with_quality=False)).compress(rs3_small.read_set)
        clone = type(archive).from_bytes(archive.to_bytes())
        clone.block(0).streams["mbta"] = (b"", 0)
        with pytest.raises((BitIOError, ValueError)) as err:
            SAGeDecompressor(clone, codec="python").decompress()
        assert "mbta" in str(err.value)


class TestClassify:
    @given(st.lists(st.integers(min_value=0, max_value=10_000),
                    min_size=1, max_size=50))
    def test_matches_scalar(self, values):
        table = AssociationTable((2, 7, 14, 0))
        expected = [table.class_for_value(v) for v in values]
        assert table.classify(values).tolist() == expected

    def test_out_of_range(self):
        table = AssociationTable((2,))
        with pytest.raises(ValueError, match="exceeds all class widths"):
            table.classify([1, 4])

    def test_encode_run_matches_scalar(self):
        table = AssociationTable((3, 9, 0))
        values = [0, 5, 130, 7, 0, 511]
        g1, a1 = BitWriter(), BitWriter()
        for v in values:
            table.encode(v, g1, a1)
        g2, a2 = BitWriter(), BitWriter()
        table.encode_run(values, g2, a2)
        assert (g1.getvalue(), a1.getvalue()) \
            == (g2.getvalue(), a2.getvalue())
        # shared-stream arrangement (guide is array)
        s1, s2 = BitWriter(), BitWriter()
        for v in values:
            table.encode(v, s1, s1)
        table.encode_run(values, s2, s2)
        assert s1.getvalue() == s2.getvalue()


class TestRegistry:
    def test_available(self):
        assert set(available_kernels()) >= {"python", "numpy"}

    def test_get_unknown(self):
        with pytest.raises(ValueError, match="unknown codec kernel"):
            get_kernel("fpga")

    def test_resolve_env(self, monkeypatch):
        monkeypatch.delenv("SAGE_CODEC", raising=False)
        assert resolve_codec("python") == "python"
        assert resolve_codec("auto") in available_kernels()
        monkeypatch.setenv("SAGE_CODEC", "python")
        assert resolve_codec("auto") == "python"
        assert resolve_codec(None) == "python"
        monkeypatch.setenv("SAGE_CODEC", "bogus")
        with pytest.raises(ValueError, match="unknown codec"):
            resolve_codec("auto")

    def test_engine_options_validation(self):
        assert EngineOptions(codec="numpy").codec == "numpy"
        with pytest.raises(ValueError, match="unknown codec"):
            EngineOptions(codec="fpga")

    def test_options_reach_compressor_config(self):
        # ``mapper`` is the one name a session stamps onto the format
        # config; ``codec`` is a decode kernel and the encoder has none.
        stamped = EngineOptions(codec="python", mapper="python") \
            .compressor_config()
        assert stamped == SAGeConfig(mapper_kernel="python")
        assert EngineOptions(codec="python").compressor_config() \
            == SAGeConfig()
        with pytest.raises(TypeError):
            SAGeConfig(codec="python")

    def test_decoder_resolves_its_kernel_once(self, rs3_small,
                                              monkeypatch):
        archive = SAGeCompressor(rs3_small.reference, SAGeConfig()) \
            .compress(rs3_small.read_set)
        monkeypatch.setenv("SAGE_CODEC", "python")
        decoder = SAGeDecompressor(archive, codec="auto")
        assert decoder.codec == "python"
        # Resolved at construction: a later env change cannot switch
        # the kernel mid-archive, and a bad name fails here, not at the
        # first block.
        monkeypatch.setenv("SAGE_CODEC", "bogus")
        assert decoder.codec in available_kernels()
        decoder.decompress()
        with pytest.raises(ValueError, match="unknown codec"):
            SAGeDecompressor(archive, codec="auto")
        with pytest.raises(ValueError, match="unknown codec"):
            SAGeDecompressor(archive, codec="fpga")


# ----------------------------------------------------------------------
# Cross-kernel fuzz: encode once, every registered kernel decodes the
# same reads
# ----------------------------------------------------------------------


def _random_read_set(rng, reference, *, n_reads, read_len, fixed,
                     with_quality, junk_rate=0.05, n_rate=0.05,
                     indel_rate=0.3):
    """Randomized reads off ``reference`` plus unmapped junk."""
    reads = []
    for i in range(n_reads):
        length = read_len if fixed \
            else int(rng.integers(read_len // 2, read_len * 2))
        if rng.random() < junk_rate:
            codes = rng.integers(0, 4, length).astype(np.uint8)
            rng.shuffle(codes)
            codes = ((codes + rng.integers(0, 4, length)) % 4) \
                .astype(np.uint8)
        else:
            start = int(rng.integers(0, max(1, reference.size - length)))
            codes = reference[start:start + length].copy()
            n_subs = int(rng.integers(0, 4))
            for _ in range(n_subs):
                p = int(rng.integers(0, length))
                codes[p] = (codes[p] + 1 + rng.integers(0, 3)) % 4
            if rng.random() < indel_rate and length > 8:
                p = int(rng.integers(1, length - 4))
                span = int(rng.integers(1, 4))
                if rng.random() < 0.5:      # insertion
                    ins = rng.integers(0, 4, span).astype(np.uint8)
                    codes = np.concatenate([codes[:p], ins, codes[p:]])
                else:                        # deletion
                    codes = np.concatenate([codes[:p], codes[p + span:]])
                if fixed:
                    codes = codes[:length]
                    if codes.size < length:
                        pad = reference[:length - codes.size]
                        codes = np.concatenate([codes, pad])
            if rng.random() < n_rate:
                p = int(rng.integers(0, codes.size))
                codes[p:p + int(rng.integers(1, 4))] = seqmod.N_CODE
            if rng.random() < 0.5:
                codes = seqmod.reverse_complement(codes)
        quality = rng.integers(2, 40, codes.size).astype(np.uint8) \
            if with_quality else None
        reads.append(Read(codes=codes.astype(np.uint8), quality=quality,
                          header=f"fuzz.{i}"))
    return ReadSet(reads, name="fuzz")


def _assert_cross_kernel(read_set, reference, config):
    archive = SAGeCompressor(reference, config).compress(read_set)
    baseline = SAGeDecompressor(archive, codec="python").decompress()
    assert len(baseline) == len(read_set)
    for codec in available_kernels():
        result = SAGeDecompressor(archive, codec=codec).decompress()
        assert len(result) == len(baseline), codec
        for a, b in zip(baseline, result):
            assert np.array_equal(a.codes, b.codes), codec
            assert (a.quality is None) == (b.quality is None), codec
            if a.quality is not None:
                assert np.array_equal(a.quality, b.quality), codec
    return baseline


@pytest.fixture(scope="module")
def fuzz_reference():
    rng = np.random.default_rng(42)
    return rng.integers(0, 4, 6_000).astype(np.uint8)


class TestCrossKernelFuzz:
    @pytest.mark.parametrize("level", [OptLevel.NO, OptLevel.O2,
                                       OptLevel.O4])
    def test_short_fixed_reads(self, fuzz_reference, level):
        rng = np.random.default_rng(int(level) + 1)
        reads = _random_read_set(rng, fuzz_reference, n_reads=120,
                                 read_len=80, fixed=True,
                                 with_quality=True)
        baseline = _assert_cross_kernel(
            reads, fuzz_reference, SAGeConfig(level=level))
        # losslessness of the content itself (order may differ)
        got = sorted(r.codes.tobytes() for r in baseline)
        want = sorted(r.codes.tobytes() for r in reads)
        assert got == want

    @pytest.mark.parametrize("with_quality", [True, False])
    def test_long_variable_reads(self, fuzz_reference, with_quality):
        rng = np.random.default_rng(7 if with_quality else 8)
        reads = _random_read_set(rng, fuzz_reference, n_reads=60,
                                 read_len=300, fixed=False,
                                 with_quality=with_quality,
                                 indel_rate=0.8)
        _assert_cross_kernel(
            reads, fuzz_reference,
            SAGeConfig(with_quality=with_quality, long_reads=True))

    def test_preserve_order_and_headers(self, fuzz_reference):
        rng = np.random.default_rng(99)
        reads = _random_read_set(rng, fuzz_reference, n_reads=80,
                                 read_len=90, fixed=True,
                                 with_quality=True)
        baseline = _assert_cross_kernel(
            reads, fuzz_reference,
            SAGeConfig(preserve_order=True, with_headers=True))
        for original, decoded in zip(reads, baseline):
            assert np.array_equal(original.codes, decoded.codes)
            assert original.header == decoded.header

    def test_tuned_indel_lengths(self, fuzz_reference):
        rng = np.random.default_rng(5)
        reads = _random_read_set(rng, fuzz_reference, n_reads=60,
                                 read_len=200, fixed=False,
                                 with_quality=False, indel_rate=0.9)
        _assert_cross_kernel(reads, fuzz_reference,
                             SAGeConfig(tuned_indel_lengths=True,
                                        long_reads=True))

    def test_empty_and_tiny_sets(self, fuzz_reference):
        empty = ReadSet([], name="empty")
        _assert_cross_kernel(empty, fuzz_reference, SAGeConfig())
        one = ReadSet([Read(codes=fuzz_reference[:50].copy(),
                            header="solo")], name="one")
        _assert_cross_kernel(one, fuzz_reference,
                             SAGeConfig(with_quality=False))

    def test_simulator_analogs(self, rs4_small):
        """The long-read analog: chimeras, bursts, clips, and Ns."""
        _assert_cross_kernel(rs4_small.read_set, rs4_small.reference,
                             SAGeConfig())


class TestColumnarDecodeOracle:
    """A block decode hands back columns; read for read it must equal
    the per-read assembly of the bit-serial reference walk
    (``iter_read_codes``), under every kernel, order, header and
    selection combination."""

    @staticmethod
    def _oracle(archive, select):
        from repro.core import headers as headers_codec
        from repro.core import quality as quality_codec
        decoder = SAGeDecompressor(archive, codec="python")
        blk = archive.block(0)
        codes = list(decoder.iter_read_codes(index=0)) \
            if "sequence" in select \
            else [np.empty(0, dtype=np.uint8)] * blk.n_reads
        quality = [None] * len(codes)
        if "quality" in select and blk.quality is not None:
            scores = quality_codec.decompress(blk.quality)
            bounds = np.cumsum([0] + [c.size for c in codes])
            quality = [scores[a:b] for a, b in zip(bounds, bounds[1:])]
        order = list(range(len(codes)))
        if archive.preserve_order and "order" in select:
            for emitted, original in enumerate(blk.permutation.tolist()):
                order[original] = emitted
        if "headers" in select and blk.headers_blob is not None:
            stored = headers_codec.decompress_headers(blk.headers_blob)
            headers = [stored[j] for j in order]
        else:
            headers = [f"fuzz.{p}" for p in range(len(codes))]
        return [(codes[j].tobytes(),
                 None if quality[j] is None else quality[j].tobytes(),
                 header) for j, header in zip(order, headers)]

    @pytest.mark.parametrize("codec", ["python", "numpy"])
    @pytest.mark.parametrize("preserve_order,with_headers",
                             [(False, False), (True, False),
                              (False, True), (True, True)])
    def test_matches_per_read_assembly(self, fuzz_reference, codec,
                                       preserve_order, with_headers):
        rng = np.random.default_rng(17)
        reads = _random_read_set(rng, fuzz_reference, n_reads=70,
                                 read_len=60, fixed=False,
                                 with_quality=True, indel_rate=0.5)
        archive = SAGeCompressor(
            fuzz_reference,
            SAGeConfig(preserve_order=preserve_order,
                       with_headers=with_headers, long_reads=True)) \
            .compress(reads)
        archive.name = "fuzz"
        decoder = SAGeDecompressor(archive, codec=codec)
        for select in (("sequence", "quality", "headers", "order"),
                       ("sequence",), ("sequence", "order"),
                       ("sequence", "quality"), ("headers", "order"),
                       ("headers",)):
            decoded = decoder.decompress(select=select)
            assert decoded._views is None, "decode built Read objects"
            got = [(r.codes.tobytes(),
                    None if r.quality is None else r.quality.tobytes(),
                    r.header) for r in decoded]
            assert got == self._oracle(archive, select), select
        if preserve_order:
            full = decoder.decompress()
            assert [r.codes.tobytes() for r in full] \
                == [r.codes.tobytes() for r in reads]


class TestFallbackHeaderNaming:
    """Fallback read names follow one rule — the global read position —
    however the archive was built or obtained."""

    def test_flat_preserve_order_block_view_matches_decompress(
            self, fuzz_reference):
        rng = np.random.default_rng(11)
        reads = _random_read_set(rng, fuzz_reference, n_reads=40,
                                 read_len=70, fixed=True,
                                 with_quality=False)
        archive = SAGeCompressor(
            fuzz_reference,
            SAGeConfig(preserve_order=True, with_quality=False)) \
            .compress(reads)
        decoder = SAGeDecompressor(archive)
        whole = [r.header for r in decoder.decompress()]
        block0 = [r.header for r in decoder.decompress_block(0)]
        assert whole == block0

    @pytest.mark.parametrize("block_reads", [0, 64],
                             ids=["one-shot", "block-engine"])
    def test_one_block_preserve_order_names_survive_roundtrip(
            self, fuzz_reference, tmp_path, block_reads):
        from repro.core.container import SAGeArchive
        from repro.genomics import fastq

        rng = np.random.default_rng(11)
        # Unnamed on purpose: the archive name is not serialized.
        reads = ReadSet(list(_random_read_set(
            rng, fuzz_reference, n_reads=40, read_len=70, fixed=True,
            with_quality=False)))
        archive = SAGeDataset.from_fastq(
            reads, reference=fuzz_reference,
            options=EngineOptions(block_reads=block_reads),
            config=SAGeConfig(preserve_order=True,
                              with_quality=False)).archive
        assert archive.n_blocks == 1

        def rendered(source):
            return fastq.write(SAGeDecompressor(source).decompress())

        before = rendered(archive)
        assert before.splitlines()[0::4] \
            == [f"@sage.{i}" for i in range(len(reads))]
        blob = archive.to_bytes()
        assert rendered(SAGeArchive.from_bytes(blob)) == before
        path = tmp_path / "one_block.sage"
        path.write_bytes(blob)
        opened = SAGeArchive.open(path)
        try:
            assert rendered(opened) == before
        finally:
            opened.close()

    def test_blocked_fallback_headers_sequential(self, rs3_small):
        dataset = SAGeDataset.from_fastq(
            rs3_small.read_set, reference=rs3_small.reference,
            options=EngineOptions(block_reads=32),
            config=SAGeConfig(with_quality=False))
        headers = [r.header for r in dataset.reads()]
        name = rs3_small.read_set.name or "sage"
        assert headers == [f"{name}.{i}" for i in range(len(headers))]


class TestBlockedCrossKernel:
    def test_blocked_archive_and_streaming(self, rs3_small):
        from repro.core.container import SAGeArchive

        blob = SAGeDataset.from_fastq(
            rs3_small.read_set, reference=rs3_small.reference,
            options=EngineOptions(block_reads=32)).to_bytes()
        sets = {}
        for codec in available_kernels():
            archive = SAGeArchive.from_bytes(blob)
            with SAGeDataset(archive,
                             options=EngineOptions(codec=codec)) as ds:
                sets[codec] = list(ds.blocks())
        assert len(sets["python"]) > 1
        for codec, blocks in sets.items():
            assert len(blocks) == len(sets["python"]), codec
            for a, b in zip(sets["python"], blocks):
                for x, y in zip(a, b):
                    assert np.array_equal(x.codes, y.codes), codec
