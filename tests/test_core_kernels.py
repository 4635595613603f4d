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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api import EngineOptions, SAGeDataset
from repro.core import (SAGeCompressor, SAGeConfig, SAGeDecompressor,
                        kernels)
from repro.core.bitio import BitIOError, BitReader, BitWriter
from repro.core.container import SAGeArchive
from repro.core.errors import (BlockDecodeError, CorruptArchiveError,
                               DecompressionError, SAGeError)
from repro.core.kernels import (available_kernels, gather_fields,
                                resolve_kernel)
from repro.core.mismatch import OptLevel
from repro.core.prefix_codes import MAX_WIDTH, AssociationTable
from repro.genomics import sequence as seqmod
from repro.genomics.reads import Read, ReadSet

from tests.conftest import class_for_value, encode_value, write_unary

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
    """A run of same-width fields is a ``write_fields`` call (raw
    matching positions, the order permutation)."""

    def test_equivalent_to_loop(self):
        a, b = BitWriter(), BitWriter()
        values = list(range(16))
        for v in values:
            a.write(v, 5)
        b.write_fields(np.array(values, dtype=np.uint8), [5] * 16)
        assert a.getvalue() == b.getvalue()
        assert a.bit_length == b.bit_length

    def test_invalid_value_fails_cleanly(self):
        w = BitWriter()
        w.write(1, 1)
        with pytest.raises(BitIOError):
            w.write_fields([1, 2, 9], [3, 3, 3])
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
            write_unary(w, v)
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
            SAGeDecompressor(clone, codec="python").decompress_block(0)
        assert "mbta" in str(err.value)


class TestClassify:
    @given(st.lists(st.integers(min_value=0, max_value=10_000),
                    min_size=1, max_size=50))
    def test_matches_scalar(self, values):
        table = AssociationTable((2, 7, 14, 0))
        expected = [class_for_value(table, v) for v in values]
        assert table.classify(values).tolist() == expected

    def test_out_of_range(self):
        table = AssociationTable((2,))
        with pytest.raises(ValueError, match="exceeds all class widths"):
            table.classify([1, 4])

    def test_guide_codes_match_scalar(self):
        table = AssociationTable((3, 9, 0))
        values = [0, 5, 130, 7, 0, 511]
        codes, code_widths, field_widths = table.guide_codes(values)
        g1, a1 = BitWriter(), BitWriter()
        for v in values:
            encode_value(table, v, g1, a1)
        g2, a2 = BitWriter(), BitWriter()
        g2.write_fields(codes, code_widths)
        a2.write_fields(values, field_widths)
        assert (g1.getvalue(), a1.getvalue()) \
            == (g2.getvalue(), a2.getvalue())
        # shared-stream arrangement: code and field interleave
        s1, s2 = BitWriter(), BitWriter()
        for v in values:
            encode_value(table, v, s1, s1)
        s2.write_fields(np.column_stack((codes, values)).ravel(),
                        np.column_stack((code_widths, field_widths)).ravel())
        assert s1.getvalue() == s2.getvalue()


class TestRegistry:
    def test_available(self):
        assert available_kernels() == ("numpy", "python")

    def test_get_unknown(self):
        with pytest.raises(ValueError, match="unknown codec"):
            resolve_kernel("fpga")
        with pytest.raises(ValueError, match="unknown codec"):
            resolve_kernel("auto")

    def test_resolve_env(self, monkeypatch):
        # The kernel is named where a decoder is built; the environment
        # chooses nothing.
        monkeypatch.setenv("SAGE_CODEC", "python")
        assert EngineOptions().codec == "numpy"
        assert resolve_kernel("numpy").name == "numpy"

    def test_engine_options_validation(self):
        assert EngineOptions(codec="python").codec == "python"
        for bad in ("fpga", "auto", None):
            with pytest.raises(ValueError, match="unknown codec"):
                EngineOptions(codec=bad)

    def test_options_reach_compressor_config(self):
        # ``codec`` is a decode kernel and the encoder has none: the
        # session stamps nothing on the format config.
        given = SAGeConfig(with_quality=False, mapper_kernel="python")
        assert EngineOptions(codec="python").compressor_config(given) \
            == given
        assert EngineOptions(codec="python").compressor_config() \
            == SAGeConfig()
        with pytest.raises(TypeError):
            SAGeConfig(codec="python")

    def test_decoder_resolves_its_kernel_once(self, rs3_small,
                                              monkeypatch):
        archive = SAGeCompressor(rs3_small.reference, SAGeConfig()) \
            .compress(rs3_small.read_set)
        monkeypatch.setenv("SAGE_CODEC", "python")
        assert SAGeDecompressor(archive).codec == "numpy"
        decoder = SAGeDecompressor(archive, codec="python")
        assert decoder.codec == "python"
        decoder.decompress_block(0)
        # A bad name fails here, not at the first block.
        for bad in ("fpga", "auto"):
            with pytest.raises(ValueError, match="unknown codec"):
                SAGeDecompressor(archive, codec=bad)


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
    baseline = SAGeDecompressor(archive, codec="python").decompress_block(0)
    assert len(baseline) == len(read_set)
    for codec in available_kernels():
        result = SAGeDecompressor(archive, codec=codec).decompress_block(0)
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


#: The consensus every recipe read is cut from.
RECIPE_REFERENCE = np.random.default_rng(2026).integers(0, 4, 3_000) \
    .astype(np.uint8)

#: One read, as ``(start, length, edits, second, clips, n_runs, reverse)``
#: over :data:`RECIPE_REFERENCE` (see :func:`_recipe_read`).
read_recipes = st.tuples(
    st.integers(-1, RECIPE_REFERENCE.size - 1),
    st.integers(20, 300),
    st.lists(st.tuples(st.integers(0, 299), st.integers(0, 2),
                       st.integers(1, 6)), max_size=4).map(tuple),
    st.one_of(st.just(()),
              st.tuples(st.integers(0, RECIPE_REFERENCE.size - 1),
                        st.integers(100, 250))),
    st.tuples(st.sampled_from([0, 0, 8, 15]), st.sampled_from([0, 0, 8, 15])),
    st.lists(st.tuples(st.integers(0, 299), st.integers(1, 8)),
             max_size=2).map(tuple),
    st.booleans())


def _recipe_read(recipe) -> np.ndarray:
    """Build one read from a recipe.

    ``start`` < 0 is a junk read of ``length`` random bases.  Otherwise
    the read is ``RECIPE_REFERENCE[start:start + length]`` (random bases
    where it runs past the reference's end) with ``edits`` ``(pos, op,
    size)`` applied last position first (op 0 substitutes, 1 inserts
    ``size`` random bases, 2 deletes ``size`` bases), a ``second``
    ``(start, length)`` reference piece appended (a chimera), random
    ``clips`` ``(head, tail)`` flanks, N over each ``n_runs`` ``(pos,
    run)`` and, last, the reverse complement if ``reverse``.
    """
    start, length, edits, second, clips, n_runs, reverse = recipe
    rng = np.random.default_rng([start + 1, length, len(edits)])
    if start < 0:
        codes = rng.integers(0, 4, length).astype(np.uint8)
    else:
        codes = RECIPE_REFERENCE[start:start + length]
        codes = np.concatenate([codes, rng.integers(
            0, 4, length - codes.size).astype(np.uint8)])
        for pos, op, size in sorted(edits, reverse=True):
            pos %= codes.size
            if op == 0:
                codes[pos] = (codes[pos] + 1 + size % 3) % 4
            elif op == 1:
                codes = np.concatenate([
                    codes[:pos], rng.integers(0, 4, size).astype(np.uint8),
                    codes[pos:]])
            elif codes.size > size:
                codes = np.concatenate([codes[:pos], codes[pos + size:]])
        if second:
            codes = np.concatenate(
                [codes, RECIPE_REFERENCE[second[0]:second[0] + second[1]]])
        head, tail = clips
        codes = np.concatenate([rng.integers(0, 4, head), codes,
                                rng.integers(0, 4, tail)]).astype(np.uint8)
    for pos, run in n_runs:
        pos %= codes.size
        codes[pos:pos + run] = seqmod.N_CODE
    return seqmod.reverse_complement(codes) if reverse else codes


def _recipe_archive(recipes, *, level, fixed, long_reads, tuned):
    reads = [_recipe_read(recipe) for recipe in recipes]
    if fixed:
        shortest = min(read.size for read in reads)
        reads = [read[:shortest] for read in reads]
    read_set = ReadSet([Read(codes=read) for read in reads], name="recipe")
    config = SAGeConfig(level=level, long_reads=long_reads,
                        tuned_indel_lengths=tuned, with_quality=False)
    return SAGeCompressor(RECIPE_REFERENCE, config).compress(read_set)


class TestReadConstructionProperty:
    """The numpy kernel's one read construction rebuilds exactly the
    reads of the reference walk, on every level and block shape."""

    O4 = dict(level=OptLevel.O4, fixed=False, long_reads=False, tuned=False)

    @settings(max_examples=60, deadline=None)
    @given(recipes=st.lists(read_recipes, min_size=1, max_size=10),
           level=st.sampled_from(list(OptLevel)), fixed=st.booleans(),
           long_reads=st.booleans(), tuned=st.booleans())
    # An insertion at read position 0: the read starts at the consensus
    # start, so no shift can turn the inserted bases into substitutions.
    @example(recipes=[(0, 100, ((0, 1, 3),), (), (0, 0), (), False)],
             **{**O4, "long_reads": True})
    # A one-base deletion two bases before the boundary of a chimera.
    @example(recipes=[(1000, 200, ((193, 2, 1),), (2200, 200), (0, 0), (),
                       False)],
             **{**O4, "long_reads": True, "tuned": True})
    # An N run inside a six-base inserted block (explicit types, O2).
    @example(recipes=[(1000, 120, ((50, 1, 6),), (), (0, 0), ((52, 2),),
                       False)],
             **{**O4, "level": OptLevel.O2})
    # A reverse read with clips at both ends and an N run, next to a
    # forward read with a substitution.
    @example(recipes=[(1000, 120, (), (), (15, 15), ((40, 3),), True),
                      (500, 150, ((30, 0, 1),), (), (0, 0), (), False)],
             **O4)
    # An insertion past the consensus end, in a fixed-length block.
    @example(recipes=[(RECIPE_REFERENCE.size - 97, 100, (), (), (0, 0), (),
                       False),
                      (100, 100, (), (), (0, 0), (), True)],
             **{**O4, "fixed": True})
    # A block with no mapped read.
    @example(recipes=[(-1, 100, (), (), (0, 0), (), False),
                      (-1, 120, (), (), (0, 0), (), True)], **O4)
    # Every read plain (no entry, segment or corner), on both strands,
    # in a fixed-length block: every read is one consensus row.
    @example(recipes=[(100, 100, (), (), (0, 0), (), False),
                      (700, 100, (), (), (0, 0), (), True),
                      (1500, 100, (), (), (0, 0), (), False),
                      (2200, 100, (), (), (0, 0), (), True)],
             **{**O4, "fixed": True})
    # A plain read that ends exactly at the consensus end, in a
    # fixed-length block.
    @example(recipes=[(RECIPE_REFERENCE.size - 100, 100, (), (), (0, 0),
                       (), False),
                      (300, 100, (), (), (0, 0), (), True)],
             **{**O4, "fixed": True})
    # Plain and deviant reads alternating in a variable-length block,
    # some of either kind reverse.
    @example(recipes=[(100, 120, (), (), (0, 0), (), False),
                      (500, 150, ((30, 0, 1),), (), (0, 0), (), True),
                      (900, 130, (), (), (0, 0), (), True),
                      (1300, 140, ((40, 1, 2),), (), (0, 0), (), False),
                      (1800, 110, (), (), (0, 0), (), False),
                      (2300, 160, (), (), (12, 0), (), True)], **O4)
    # No read plain: a substitution, clips, an N run, a deletion.
    @example(recipes=[(100, 100, ((50, 0, 1),), (), (0, 0), (), False),
                      (600, 100, (), (), (8, 0), (), True),
                      (1100, 100, (), (), (0, 0), ((20, 3),), False),
                      (1600, 110, ((60, 2, 2),), (), (0, 0), (), True)],
             **{**O4, "fixed": True})
    def test_numpy_equals_python(self, recipes, level, fixed, long_reads,
                                 tuned):
        archive = _recipe_archive(recipes, level=level, fixed=fixed,
                                  long_reads=long_reads, tuned=tuned)
        decoder = SAGeDecompressor(archive)
        want = resolve_kernel("python").decode_reads(decoder)
        got = resolve_kernel("numpy").decode_reads(decoder)
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[0], want[0])


class TestPlainReadRows:
    """A plain read — a mapped read with no mismatch entry, no later
    segment and no corner — is one copy of the consensus: the walk
    records only its strand, and construction copies it whole."""

    @staticmethod
    def _plain_archive(lengths):
        # O0 stores every matching position as a plain ``w_cons``-bit
        # field, so one position can be rewritten in place.
        recipes = [(400 * k + 100, length, (), (), (0, 0), (), k % 2 == 1)
                   for k, length in enumerate(lengths)]
        return _recipe_archive(recipes, level=OptLevel.NO,
                               fixed=len(set(lengths)) == 1,
                               long_reads=False, tuned=False)

    @pytest.mark.parametrize("lengths", [(100, 100, 100), (100, 120, 140)],
                             ids=["fixed", "variable"])
    def test_position_past_consensus_end_is_typed(self, lengths):
        archive = self._plain_archive(lengths)
        block = archive.block(0)
        assert block.fixed_length == (len(set(lengths)) == 1)
        w_cons = archive.w_cons
        n = block.n_mapped
        positions = gather_fields(block.streams["mpa"],
                                  np.arange(n) * w_cons,
                                  np.full(n, w_cons)).tolist()
        positions[n // 2] = RECIPE_REFERENCE.size - 1
        assert positions[n // 2] < 1 << w_cons
        writer = BitWriter()
        for position in positions:
            writer.write(position, w_cons)
        block.streams["mpa"] = (writer.getvalue(), writer.bit_length)
        with pytest.raises(DecompressionError,
                           match="matching position walks outside the "
                                 "consensus"):
            resolve_kernel("numpy").decode_reads(SAGeDecompressor(archive))
        with pytest.raises(SAGeError):
            SAGeDecompressor(archive, codec="python").decompress_block(0)

    def test_walk_emits_no_run_for_a_plain_read(self, monkeypatch):
        # Three plain reads and three with one substitution each: a
        # substitution-only read needs exactly one run, a plain read none.
        recipes = [(300 * k + 100, 100,
                    ((30 + 10 * k, 0, 1),) if k % 2 else (), (), (0, 0), (),
                    k % 3 == 0)
                   for k in range(6)]
        archive = _recipe_archive(recipes, level=OptLevel.O4, fixed=True,
                                  long_reads=False, tuned=False)
        calls = []
        construct = kernels._construct_reads

        def spied(cons, lengths, first_cons, deviant, runs, *rest):
            calls.append((list(deviant), list(runs)))
            return construct(cons, lengths, first_cons, deviant, runs,
                             *rest)

        monkeypatch.setattr(kernels, "_construct_reads", spied)
        decoder = SAGeDecompressor(archive)
        got = resolve_kernel("numpy").decode_reads(decoder)
        [(deviant, runs)] = calls
        assert len(deviant) == 3
        assert len(runs) == 4 * len(deviant)
        assert runs[0::4] == deviant
        assert runs[3::4] == [100] * len(deviant)
        want = resolve_kernel("python").decode_reads(decoder)
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[0], want[0])


class TestWideClassRefused:
    """Every field the format allows fits one 64-bit window: a class
    wider than :data:`MAX_WIDTH` (56) bits is refused when its block is
    parsed, the same typed error on both kernels, so the numpy kernel
    has no second path for it.  Tuning never builds such a table; the
    writer is let past the bound to craft one."""

    def test_wide_count_class_is_a_corrupt_archive(self, fuzz_reference,
                                                   monkeypatch):
        from dataclasses import replace

        from repro.core import compressor, prefix_codes

        tune = compressor.tune_values

        def widened(values, *args, **kwargs):
            result = tune(values, *args, **kwargs)
            return replace(result, table=AssociationTable(
                result.table.widths + (60,)))

        reads = _random_read_set(np.random.default_rng(3), fuzz_reference,
                                 n_reads=40, read_len=90, fixed=True,
                                 with_quality=False)
        with monkeypatch.context() as patch:
            patch.setattr(prefix_codes, "MAX_WIDTH", 63)
            patch.setattr(compressor, "tune_values", widened)
            blob = SAGeCompressor(fuzz_reference,
                                  SAGeConfig(with_quality=False)) \
                .compress(reads).to_bytes()
        assert MAX_WIDTH == 56

        with pytest.raises(CorruptArchiveError, match="width 60") as info:
            SAGeArchive.from_bytes(blob).block(0)
        assert info.value.block_index == 0
        for codec in available_kernels():
            with pytest.raises(CorruptArchiveError, match="width 60"):
                resolve_kernel(codec).decode_reads(
                    SAGeDecompressor(SAGeArchive.from_bytes(blob),
                                     codec=codec))
            session = SAGeDataset(SAGeArchive.from_bytes(blob),
                                  options=EngineOptions(codec=codec))
            with pytest.raises(BlockDecodeError) as info:
                session.read_set()
            assert isinstance(info.value.__cause__, CorruptArchiveError)
            assert info.value.block_index == 0

    def test_wide_read_length_field_is_a_corrupt_archive(self,
                                                         fuzz_reference):
        from dataclasses import replace

        from repro.core.container import VERSION, SAGeBlock

        reads = _random_read_set(np.random.default_rng(3), fuzz_reference,
                                 n_reads=20, read_len=90, fixed=False,
                                 with_quality=False)
        block = SAGeCompressor(fuzz_reference,
                               SAGeConfig(with_quality=False)) \
            .compress(reads).block(0)
        assert SAGeBlock.deserialize(block.serialize(), VERSION).w_rlen \
            == block.w_rlen
        wide = replace(block, w_rlen=MAX_WIDTH + 1).serialize()
        with pytest.raises(CorruptArchiveError,
                           match=f"read-length width {MAX_WIDTH + 1}"):
            SAGeBlock.deserialize(wide, VERSION)


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
            decoded = decoder.decompress_block(0, select=select)
            assert decoded._views is None, "decode built Read objects"
            got = [(r.codes.tobytes(),
                    None if r.quality is None else r.quality.tobytes(),
                    r.header) for r in decoded]
            assert got == self._oracle(archive, select), select
        if preserve_order:
            full = decoder.decompress_block(0)
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
        whole = [r.header for r in decoder.decompress_block(0)]
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
            return fastq.write(SAGeDecompressor(source).decompress_block(0))

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
        headers = [r.header for block in dataset.blocks() for r in block]
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
