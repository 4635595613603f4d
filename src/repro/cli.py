"""``sage`` command-line interface.

Subcommands::

    sage compress   input.fastq consensus.txt output.sage [--level O4]
                    [--workers N] [--block-reads M]
    sage decompress input.sage output.fastq [--workers N]
    sage cat        input.sage [--block I] [--output out.fastq]
                    [--workers N]
    sage analyze    input.sage [--workers N] [--sink NAME ...] [--json]
    sage inspect    input.sage [--json]
    sage verify     input.sage [--deep] [--json] [--workers N]
    sage salvage    input.sage output.fastq [--workers N] [--json]
    sage simulate   RS2 output.fastq [--genome 50000] [--ref ref.txt]
    sage serve      input.sage [more.sage ...] [--host H] [--port P]
                    [--cache-mb MB] [--decode-threads N] [--workers N]
                    [--smoke]

The consensus file is plain ACGT text (a reference genome); ``simulate``
writes one alongside the FASTQ so the two commands compose.

Every command is a thin shell over the :class:`repro.api.SAGeDataset`
facade: session flags (``--workers``, ``--block-reads``) build one
:class:`repro.api.EngineOptions` (validated in one place), the format
flags of ``compress`` (``--level``, ``--no-quality``) build its
:class:`repro.core.SAGeConfig`, ``compress`` is
``SAGeDataset.from_fastq(...).save(...)``, the consume-side commands are
``SAGeDataset.open(...)`` sessions.
``--block-reads M`` partitions the input into independently decodable
blocks of ``M`` reads (the container's random-access unit) and
streams the FASTQ instead of loading it whole (``0``, the default, is
one block); ``--workers N`` compresses/decodes blocks on ``N`` processes
with a bounded in-flight window, byte-identical for every ``N``.
``sage cat --block I`` decodes a single block without touching the rest
of the archive; ``sage analyze`` runs
the facade's built-in sinks (``--sink property --sink
mapping-rate``, default ``property``) directly off an archive, using
the archive's own consensus as the reference.

Nothing here picks a kernel: archives and decodes are byte-identical
across them, so the CLI runs the ``numpy`` defaults of
:mod:`repro.core.kernels` and :mod:`repro.mapping.batch`, and the
reference kernels are named from Python, where a session or a
:class:`SAGeConfig` is built.  Performance is measured
by the repo benchmark (``python3 -m bench.run``, see
``bench/README.md``), not by a subcommand here.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .api import (EngineOptions, SAGeDataset, StreamSelection,
                  available_sinks, describe, result_info, stream_info)
from .core import OptLevel, SAGeConfig, SAGeError
from .genomics import datasets, fastq
from .genomics import sequence as seqmod
from .pipeline.executor import decode_block


#: Exit codes: 0 success, 1 damaged/failed input (``SAGeError``,
#: ``FastqError``), 2 usage error (argparse convention).
EXIT_DAMAGE = 1
EXIT_USAGE = 2


def _usage_exit(message: str) -> SystemExit:
    """Exit with the argparse usage code (2), message on stderr."""
    print(f"sage: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _engine_options(**kwargs) -> EngineOptions:
    """Build the session options, turning validation errors into exits."""
    try:
        return EngineOptions(**kwargs)
    except ValueError as exc:
        raise _usage_exit(str(exc)) from None


def _cmd_compress(args: argparse.Namespace) -> int:
    options = _engine_options(workers=args.workers,
                              block_reads=args.block_reads)
    config = SAGeConfig(level=OptLevel[args.level],
                        with_quality=not args.no_quality)
    dataset = SAGeDataset.from_fastq(args.input,
                                     reference=args.consensus,
                                     options=options, config=config)
    nbytes = dataset.save(args.output)
    totals = dataset.source_totals
    archive = dataset.archive
    block_note = f", {archive.n_blocks} blocks" \
        if options.block_reads else ""
    dna = max(1, archive.dna_byte_size())
    print(f"{args.input}: {totals.fastq_bytes} B -> {nbytes} B "
          f"(ratio {totals.fastq_bytes / nbytes:.2f}, "
          f"DNA ratio {totals.bases / dna:.2f}{block_note})")
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    options = _engine_options(workers=args.workers)
    # Stream block by block: FASTQ for block i is written while block
    # i+1 is still decoding, and the dataset is never materialized.
    with SAGeDataset.open(args.input, options=options) as dataset:
        n_reads = dataset.to_fastq(args.output)
    print(f"{args.input}: {n_reads} reads -> {args.output}")
    return 0


def _cmd_cat(args: argparse.Namespace) -> int:
    options = _engine_options(workers=args.workers)
    with SAGeDataset.open(args.input, options=options) as dataset:
        if args.block is not None and \
                not 0 <= args.block < dataset.n_blocks:
            raise _usage_exit(
                f"block {args.block} out of range "
                f"(archive has {dataset.n_blocks} blocks)")
        out = sys.stdout if args.output in (None, "-") \
            else open(args.output, "w", encoding="ascii")
        try:
            if args.block is None:
                dataset.to_fastq(out)
            else:
                # The per-block decode every FASTQ pass runs: names
                # count from the block's global position.
                out.write(decode_block(
                    dataset.decompressor(), args.block,
                    StreamSelection.all_streams(), render=True,
                    columns=False).fastq.decode("ascii"))
        finally:
            if out is not sys.stdout:
                out.close()
    return 0


def _print_property_text(info: dict) -> None:
    print(f"chimeric reads: {info['n_chimeric']}")
    hist = info["mismatch_count_hist"]
    total = max(1, sum(hist))
    zero = hist[0] / total if hist else 0.0
    print(f"mismatch-free mapped reads: {zero:.1%}")
    fractions = info["matching_pos_bitcount_fractions"]
    top = max(range(len(fractions)), key=fractions.__getitem__)
    print(f"matching-pos deltas: modal bit width {top} "
          f"({fractions[top]:.1%} of reads)")


def _cmd_analyze(args: argparse.Namespace) -> int:
    options = _engine_options(workers=args.workers)
    sink_names = args.sink or ["property"]
    if len(set(sink_names)) != len(sink_names):
        raise _usage_exit("duplicate --sink names")
    with SAGeDataset.open(args.input, options=options) as dataset:
        try:
            # Only sink *resolution* is a usage error; failures inside
            # a sink's consume/finish keep their traceback.
            pipeline = dataset.pipe(*sink_names)
        except (TypeError, ValueError) as exc:
            raise _usage_exit(str(exc)) from None
        results = pipeline.run()
        stats = dataset.stats
    infos = {name: result_info(result)
             for name, result in zip(sink_names, results)}

    if args.json:
        print(json.dumps({"input": args.input, "sinks": infos,
                          "stream": {**stream_info(stats),
                                     "workers": args.workers}},
                         indent=2, sort_keys=True))
        return 0
    for name, info in infos.items():
        if "mapping_rate" in info:
            print(f"[{name}] {info['n_reads']} reads, mapping rate "
                  f"{info['mapping_rate']:.1%} "
                  f"({info['n_unmapped']} unmapped)")
        else:
            print(f"[{name}] {info}")
        if "n_chimeric" in info:
            _print_property_text(info)
    print(f"peak in-flight blocks: {stats.peak_inflight} "
          f"(workers={args.workers})")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    with SAGeDataset.open(args.input) as dataset:
        info = describe(dataset)
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(f"level: {info['level']}")
    print(f"container: v{info['format_version']}, "
          f"{info['n_blocks']} block(s)")
    print(f"integrity: {info['integrity']}")
    print(f"reads: {info['n_mapped']} mapped, "
          f"{info['n_unmapped']} unmapped")
    print(f"consensus: {info['consensus_length']} bases")
    print(f"fixed read length: {info['fixed_read_length'] or 'variable'}")
    if info["quality"] is None:
        print("quality: unknown (block 0 is damaged)")
    else:
        print(f"quality: {'yes' if info['quality'] else 'no'}")
    for block in info["blocks"]:
        print(f"  block {block['index']:<4} {block['n_reads']:>8} reads "
              f"{block['bytes']:>10} B @ {block['offset']}"
              + (f"  DAMAGED: {block['error']}" if "error" in block
                 else ""))
    for name, bits in info["stream_bits"].items():
        print(f"  stream {name:<10} "
              f"{'unknown' if bits is None else bits:>12} bits")
    # Block 0's tables (absent when block 0 is damaged).
    for key, widths in (info["tables"] or {}).items():
        print(f"  table  {key:<10} widths {tuple(widths)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Checksum walk (and optional full decode) over an archive."""
    options = _engine_options(workers=args.workers)
    with SAGeDataset.open(args.input, options=options) as dataset:
        report = dataset.verify(deep=args.deep)
    if args.json:
        info = report.to_dict()
        info["input"] = args.input
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0 if report.ok else 1
    n_failed = sum(1 for s in report.blocks if s == "failed")
    print(f"{args.input}: v{report.format_version}, "
          f"{len(report.blocks)} block(s), "
          f"integrity {report.status}"
          f"{' (deep decode)' if report.deep else ''}")
    if report.header != "ok":
        print(f"  header: {report.header}")
    if report.consensus != "ok":
        print(f"  consensus: {report.consensus}")
    if n_failed:
        for index, status in enumerate(report.blocks):
            if status == "failed":
                detail = report.errors.get(index)
                print(f"  block {index}: failed"
                      + (f" ({detail})" if detail else ""))
    return 0 if report.ok else 1


def _cmd_salvage(args: argparse.Namespace) -> int:
    """Recover every intact block of a damaged archive to FASTQ: a
    ``decompress`` under ``on_error="skip"``, reported from its stats."""
    options = _engine_options(workers=args.workers, on_error="skip")
    with SAGeDataset.open(args.input, options=options) as dataset:
        n_reads = dataset.to_fastq(args.output)
        n_blocks, stats = dataset.n_blocks, dataset.stats
    if args.json:
        print(json.dumps({
            "n_blocks": n_blocks, "blocks_recovered": stats.blocks,
            "blocks_lost": len(stats.gaps), "reads_recovered": n_reads,
            "reads_lost": sum(gap.n_reads for gap in stats.gaps),
            "recovery_rate": stats.blocks / max(1, n_blocks),
            "gaps": [{"block": gap.index, "n_reads": gap.n_reads,
                      "error": gap.message} for gap in stats.gaps],
            "input": args.input, "output": args.output},
            indent=2, sort_keys=True))
    else:
        print(f"{args.input}: recovered {stats.blocks}/{n_blocks} blocks "
              f"({n_reads} reads) -> {args.output}")
        for gap in stats.gaps:
            print(f"  lost block {gap.index} ({gap.n_reads} reads): "
                  f"{gap.message}")
    return 0 if not stats.gaps else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    sim = datasets.generate(args.dataset, base_genome=args.genome,
                            seed=args.seed)
    fastq.write_file(sim.read_set, args.output)
    ref_path = args.ref or str(Path(args.output).with_suffix(".ref.txt"))
    Path(ref_path).write_text(seqmod.decode(sim.reference),
                              encoding="ascii")
    print(f"{args.dataset}: {len(sim.read_set)} reads "
          f"({sim.read_set.total_bases} bases) -> {args.output}; "
          f"reference -> {ref_path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Serve archives over HTTP with a decoded-block cache."""
    import time

    from .serve import ArchiveServer

    options = _engine_options(workers=args.workers)
    try:
        server = ArchiveServer(args.archives, options=options,
                               cache_bytes=args.cache_mb << 20,
                               decode_threads=args.decode_threads,
                               host=args.host, port=args.port)
    except SAGeError:
        # A damaged archive is an input problem (exit 1 via main), not
        # a usage error — and SAGeError subclasses ValueError, so this
        # re-raise must come first.
        raise
    except ValueError as exc:
        raise _usage_exit(str(exc)) from None
    try:
        port = server.start()
        print(f"serving {', '.join(server.archive_names)} on "
              f"http://{args.host}:{port}", flush=True)
        if args.smoke:
            # Smoke mode: prove startup + clean shutdown and exit.
            return 0
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            pass
    finally:
        server.close()
        print(server.stats.render(), file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sage", description="SAGe genomic (de)compression")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress a FASTQ file")
    p.add_argument("input")
    p.add_argument("consensus")
    p.add_argument("output")
    p.add_argument("--level", default="O4",
                   choices=[lvl.name for lvl in OptLevel])
    p.add_argument("--no-quality", action="store_true")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for block compression (the "
                        "archive is byte-identical for every N)")
    p.add_argument("--block-reads", type=int, default=0,
                   help="reads per independently decodable block "
                        "(0 = single-block archive); alone decides "
                        "the partition")
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("decompress", help="decompress to FASTQ")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for parallel block decode "
                        "(output is byte-identical for every N)")
    p.set_defaults(func=_cmd_decompress)

    p = sub.add_parser("cat", help="decode blocks to FASTQ on stdout")
    p.add_argument("input")
    p.add_argument("--block", type=int, default=None,
                   help="decode only this block index")
    p.add_argument("--output", "-o", default=None,
                   help="write FASTQ here instead of stdout")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for parallel block decode")
    p.set_defaults(func=_cmd_cat)

    p = sub.add_parser("analyze",
                       help="stream sink analysis off an archive "
                            "(no FASTQ round trip)")
    p.add_argument("input")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes decoding blocks while "
                        "analysis consumes them")
    p.add_argument("--sink", action="append", default=None,
                   metavar="NAME",
                   help="built-in sink (repeatable, default property; "
                        f"one of: {', '.join(available_sinks())})")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("inspect", help="describe an archive")
    p.add_argument("input")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON metadata "
                        "(includes format_version, checksums and an "
                        "integrity summary)")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("verify",
                       help="walk an archive's integrity checksums "
                            "(exit 1 on damage)")
    p.add_argument("input")
    p.add_argument("--deep", action="store_true",
                   help="additionally decode every block (catches "
                        "damage pre-v4 layouts cannot checksum)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes decoding blocks in the "
                        "--deep pass (the report is identical for "
                        "every N; ignored without --deep)")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("salvage",
                       help="recover every intact block of a damaged "
                            "archive to FASTQ (exit 1 if blocks were "
                            "lost)")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for parallel block decode")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON")
    p.set_defaults(func=_cmd_salvage)

    p = sub.add_parser("simulate", help="generate a synthetic read set")
    p.add_argument("dataset", choices=["RS1", "RS2", "RS3", "RS4", "RS5"])
    p.add_argument("output")
    p.add_argument("--genome", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ref", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("serve",
                       help="serve archives over HTTP (random-access "
                            "blocks, read ranges, sink analysis)")
    p.add_argument("archives", nargs="+",
                   help="archive path(s); name with NAME=path, default "
                        "name is the file stem")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765,
                   help="TCP port (0 = pick a free port)")
    p.add_argument("--cache-mb", type=int, default=64,
                   help="LRU budget in MiB for rendered blocks (one "
                        "costs its inspect --json decoded_nbytes_estimate)")
    p.add_argument("--decode-threads", type=int, default=4,
                   help="bounded pool running block decodes off the "
                        "event loop")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for full-pass /analyze "
                        "requests")
    p.add_argument("--smoke", action="store_true",
                   help="start, print the bound port, shut down cleanly "
                        "and exit (CI smoke mode)")
    p.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0
    except FileNotFoundError as exc:
        # A missing input path is a usage problem, not archive damage.
        print(f"sage: {exc.filename or exc}: no such file",
              file=sys.stderr)
        return EXIT_USAGE
    except (SAGeError, fastq.FastqError) as exc:
        # A malformed/corrupt archive or FASTQ file is an input problem,
        # not a crash: report the typed error (block/stream/offset or
        # record context included) without a traceback.  Damage exits
        # 1; usage errors exit 2 (via argparse or _usage_exit).
        print(f"sage: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DAMAGE


if __name__ == "__main__":
    sys.exit(main())
