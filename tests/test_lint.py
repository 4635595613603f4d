"""The architectural contracts, stated once, as tests.

A contract is one plain function ``contract(source, where) ->
list[str]``: the offenders in one file's source, ``where`` being its
repo-relative posix path (which decides whether the file is in the
contract's scope at all).  Each is asserted ``== []`` over the real
tree and non-empty on a violating snippet, so the evidence that it can
fire is executable.  A sanctioned exception is an allow-list entry
*here* (site -> reason), never a comment in ``src/``.  Contracts about
what imports what, or about names that stay deleted, are the pins
further down; a contract the code makes true by construction (the
serve error boundary: ``ArchiveServer._dispatch``) has no check at all.
"""

import ast
import re
import textwrap
from functools import partial
from importlib.util import resolve_name
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def on_tree(contract, *roots):
    """``contract``'s offenders over every ``.py`` file under ``roots``."""
    return [offender
            for root in roots
            for path in sorted((ROOT / root).rglob("*.py"))
            for offender in contract(path.read_text(),
                                     path.relative_to(ROOT).as_posix())]


def on_snippet(contract, source, where):
    """``contract``'s offenders in ``source`` as if it lived at ``where``."""
    return contract(textwrap.dedent(source), where)


def imported_names(source, package):
    """``(node, dotted name)`` for everything a module of ``package``
    imports, relative imports resolved, module level or not."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name
        elif isinstance(node, ast.ImportFrom):
            module = resolve_name(
                "." * node.level + (node.module or ""), package)
            for alias in node.names:
                yield node, f"{module}.{alias.name}"


def importers_of(package, *layers):
    """``file:line`` of every import of ``package`` (a dotted prefix)
    under the given entries of ``src/repro`` (sub-packages or files)."""
    return [f"{path.relative_to(SRC)}:{node.lineno}"
            for layer in layers
            for path in sorted((SRC / "repro").glob(f"{layer}/**/*.py"))
            + sorted((SRC / "repro").glob(f"{layer}.py"))
            for node, name in imported_names(
                path.read_text(),
                ".".join(path.relative_to(SRC).parts[:-1]))
            if f"{name}.".startswith(f"{package}.")]


def mentions(*banned):
    """``file:line`` of every identifier under ``src/`` — definition,
    name, attribute, argument or keyword — that is one of ``banned``."""
    return [f"{path.relative_to(SRC)}:{node.lineno}"
            for path in sorted(SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if {getattr(node, field, None)
                for field in ("id", "attr", "arg", "name")} & set(banned)]


def files_mentioning(*texts):
    """The files under ``src/`` whose text contains one of ``texts``."""
    return [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
            if any(text in path.read_text() for text in texts)]


def _parameters(func):
    args = func.args
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def _caught(handler):
    """The exception names one ``except`` clause catches (bare: None)."""
    node = handler.type
    if node is None:
        return {None}
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    return {getattr(e, "id", getattr(e, "attr", "")) for e in elts}


# ----------------------------------------------------------------------
# SGL001 error-taxonomy (PR 7): malformed input fails through
# repro.core.errors.  In core/ and pipeline/ decode and parse paths
# (functions named decode*/parse*/read*/..., plus the constructors of
# classes that define deserialize/from_bytes — they validate wire data)
# raise no bare ValueError/KeyError/struct.error/... and convert no
# parsed text with an unguarded int()/float(); and nowhere in scope does
# a broad ``except`` silently swallow.
# ----------------------------------------------------------------------

_BARE_ERRORS = {"ValueError", "KeyError", "IndexError", "TypeError",
                "RuntimeError", "struct.error"}
_DECODE_NAME = re.compile(
    r"^_?(decode|decompress|deserialize|parse|unpack|from_bytes|load|"
    r"iter_block|read(_|$))")
_TEXT_SPLITS = {"split", "rsplit", "partition", "rpartition", "splitlines"}


def _parses_text(func):
    """int() of a numpy scalar never fails on a damaged archive;
    int() of text the function split or decoded does."""
    return any(isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and (node.func.attr in _TEXT_SPLITS
                    or node.func.attr == "decode" and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str))
               for node in ast.walk(func))


def error_taxonomy(source, where):
    if not where.startswith(("src/repro/core/", "src/repro/pipeline/")):
        return []
    tree = ast.parse(source)
    wire_classes = {
        cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        and any(getattr(item, "name", "") in ("deserialize", "from_bytes")
                for item in cls.body)}
    offenders = []

    def walk(node, func, cls, guarded):
        decode_path = func is not None and (
            _DECODE_NAME.match(func.name) is not None
            or func.name in ("__init__", "__post_init__")
            and cls in wire_classes)
        at = f"{where}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Raise) and decode_path and node.exc:
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if ast.unparse(exc) in _BARE_ERRORS:
                offenders.append(f"{at} {func.name}() raises bare "
                                 f"{ast.unparse(exc)}")
        elif (isinstance(node, ast.Call) and decode_path and not guarded
              and getattr(node.func, "id", None) in ("int", "float")
              and node.args and not isinstance(node.args[0], ast.Constant)
              and _parses_text(func)):
            offenders.append(f"{at} unguarded {node.func.id}() on parsed "
                             f"text in {func.name}()")
        elif (isinstance(node, ast.ExceptHandler)
              and all(isinstance(stmt, (ast.Pass, ast.Continue))
                      for stmt in node.body)
              and _caught(node) & {None, "Exception", "BaseException"}):
            offenders.append(f"{at} broad except silently swallows")
        if isinstance(node, FUNCTIONS):
            func = node
        elif isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Try):
            # Only the body and else of a try are guarded by its
            # handlers; catching a *subclass* of ValueError is no guard.
            inner = guarded or any(
                _caught(h) & {None, "ValueError", "Exception",
                              "BaseException"} for h in node.handlers)
            for child in node.body + node.orelse:
                walk(child, func, cls, inner)
            for child in node.handlers + node.finalbody:
                walk(child, func, cls, guarded)
        else:
            for child in ast.iter_child_nodes(node):
                walk(child, func, cls, guarded)

    walk(tree, None, None, False)
    return offenders


# ----------------------------------------------------------------------
# SGL002 kernel-determinism (PR 5/6): archives are byte-identical
# across mapper kernels and decoded reads across codec kernels, so no
# module that decides bytes — every module under core/ and mapping/, a
# computed scope, not a list somebody keeps — consults a clock, an RNG
# or, outside the resolve_* registry resolvers, the environment.
# ----------------------------------------------------------------------

_NONDETERMINISTIC = {"random", "time", "datetime", "secrets", "uuid"}


def kernel_determinism(source, where):
    if not where.startswith(("src/repro/core/", "src/repro/mapping/")):
        return []
    offenders = []

    def walk(node, in_resolver):
        modules = []
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        offenders.extend(f"{where}:{node.lineno} imports {module}"
                         for module in modules
                         if module.split(".")[0] in _NONDETERMINISTIC)
        if (isinstance(node, ast.Attribute) and not in_resolver
                and getattr(node.value, "id", None) == "os"
                and node.attr in ("environ", "getenv")):
            offenders.append(f"{where}:{node.lineno} reads os.{node.attr} "
                             f"outside a resolve_* function")
        if isinstance(node, FUNCTIONS) and node.name.startswith("resolve_"):
            in_resolver = True
        for child in ast.iter_child_nodes(node):
            walk(child, in_resolver)

    walk(ast.parse(source), False)
    return offenders


# ----------------------------------------------------------------------
# SGL003 options-threading (PR 4) + "decided once" (PR 15), one
# statement: a session fixes its options and a decoder its kernel.  No
# function under src/repro outside core/options.py takes an engine knob
# as a parameter — knobs travel in EngineOptions — except the sanctioned
# sites below; of SAGeDataset/Pipeline only the session constructors
# (and the executor factory they feed) take ``options``; and the front
# ends (cli.py, serve/) do not mention a codec at all.
# ----------------------------------------------------------------------

ENGINE_KNOBS = {"workers", "backend", "block_reads", "codec", "mapper"}

#: site -> why a knob-named parameter there is not a re-decided option.
SANCTIONED_KNOB_SITES = {
    "src/repro/core/decompressor.py::SAGeDecompressor.__init__":
        "codec selection is the kernel-registry mechanism itself",
    "src/repro/baselines/spring.py::SpringCompressor.__init__":
        "mapper kernel selection is this baseline's mechanism",
    "src/repro/genomics/fastq.py::iter_read_sets":
        "block_reads is the parser's batching unit, not an engine knob "
        "here",
    "src/repro/pipeline/endtoend.py::batches_for_dataset":
        "block_reads is the dataset batching unit, not an engine knob "
        "here",
}

_SESSION_ENTRY = {"__init__", "from_fastq", "open", "_make_executor"}


def options_decided_once(source, where, sanctioned=SANCTIONED_KNOB_SITES):
    if not where.startswith("src/repro/") \
            or where == "src/repro/core/options.py":
        return []
    offenders = []
    if (where == "src/repro/cli.py"
            or where.startswith("src/repro/serve/")) and "codec" in source:
        offenders.append(f"{where} mentions codec")

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, FUNCTIONS):
                site = f"{where}::{owner}.{child.name}" if owner \
                    else f"{where}::{child.name}"
                parameters = _parameters(child)
                knobs = sorted(ENGINE_KNOBS.intersection(parameters))
                if knobs and site not in sanctioned:
                    offenders.append(f"{site} takes {', '.join(knobs)} "
                                     f"(line {child.lineno})")
                if "options" in parameters \
                        and owner in ("SAGeDataset", "Pipeline") \
                        and child.name not in _SESSION_ENTRY:
                    offenders.append(f"{site} takes options "
                                     f"(line {child.lineno})")
            walk(child, child.name if isinstance(child, ast.ClassDef)
                 else owner)

    walk(ast.parse(source), "")
    return offenders


# ----------------------------------------------------------------------
# SGL004 sink-contract (PR 2/7/8), everywhere a sink can be written
# (src/, examples/, benchmarks/): a class implementing the Sink protocol
# (consume + finish) declares ``requires`` — None opts into the full
# decode *explicitly* — and keeps consume(self, index, block); an
# optional consume_gap takes exactly (self, gap), or the fault-tolerant
# executor's hook dispatch breaks at the first lost block.
# ----------------------------------------------------------------------

def _required_positional(func):
    args = func.args
    return len(args.posonlyargs) + len(args.args) - len(args.defaults)


def sink_contract(source, where):
    offenders = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef) or any(
                ast.unparse(base).split("[")[0].endswith("Protocol")
                for base in cls.bases):
            continue
        at = f"{where}:{cls.lineno} {cls.name}"
        methods = {item.name: item for item in cls.body
                   if isinstance(item, FUNCTIONS)}
        gap = methods.get("consume_gap")
        if gap is not None and _required_positional(gap) != 2:
            offenders.append(f"{at}.consume_gap must take (self, gap)")
        if not {"consume", "finish"} <= methods.keys():
            continue
        declared = {ast.unparse(target) for item in cls.body
                    if isinstance(item, (ast.Assign, ast.AnnAssign))
                    for target in getattr(item, "targets", None)
                    or [item.target]}
        if "requires" not in declared:
            offenders.append(f"{at} does not declare requires")
        if _required_positional(methods["consume"]) != 3:
            offenders.append(f"{at}.consume must take (self, index, block)")
    return offenders


# ----------------------------------------------------------------------
# SGL006 mmap-lifetime (PR 8): SAGeArchive.open hands out zero-copy
# memoryview slices of the archive mmap; one stored on ``self`` pins the
# mapping past close().  Only core/container.py — the view's owner,
# which knows when to release — may hold one; bytes(view) is the fix.
# ----------------------------------------------------------------------

def _payload_view(value):
    """The call under ``value`` that yields an uncopied payload view."""
    if isinstance(value, ast.Call):
        name = getattr(value.func, "id", None)
        if name == "memoryview":
            return "memoryview(...)"
        if name in ("bytes", "bytearray"):     # the sanctioned copy
            return None
        if getattr(value.func, "attr", None) in ("block_payload",
                                                 "_checked_payload"):
            return f".{value.func.attr}(...)"
    for child in ast.iter_child_nodes(value):
        found = _payload_view(child)
        if found is not None:
            return found
    return None


def mmap_lifetime(source, where):
    if not where.startswith("src/repro/") \
            or where == "src/repro/core/container.py":
        return []
    offenders = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) \
                or node.value is None:
            continue
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        if any(isinstance(t, ast.Attribute)
               and getattr(t.value, "id", None) == "self" for t in targets):
            view = _payload_view(node.value)
            if view is not None:
                offenders.append(f"{where}:{node.lineno} stores {view} "
                                 f"on self")
    return offenders


# ----------------------------------------------------------------------
# The consumer boundary (PR 22): a block is its columns at the sink too.
# The built-in consumers — everything under pipeline/, analysis/ and
# hardware/ — take a block's columns (``block.read_codes()`` for a
# mapper) and map it in one ``map_batch`` call on the session's kernel:
# they never iterate a read set into ``Read`` views and never call the
# scalar ``map_read`` per read; and outside mapping/ nothing constructs
# the scalar ``ReadMapper`` by hand (``make_mapper`` decides), except
# the sanctioned site below.
# ----------------------------------------------------------------------

COLUMN_CONSUMERS = ("src/repro/pipeline/", "src/repro/analysis/",
                    "src/repro/hardware/")

#: site -> why a hard-wired scalar ``ReadMapper(`` there is not a fork
#: of the session's mapper choice.
SANCTIONED_SCALAR_MAPPER_SITES = {
    "src/repro/baselines/spring.py":
        "the Spring baseline's mismatch finding is what "
        "benchmarks/test_fig18_comptime.py times against a scalar "
        "map_read pass; it is a baseline's own mechanism, not a "
        "consumer of decoded blocks",
}

#: What a variable holding a read set is called in this tree.
_READ_SET_NAME = re.compile(r"(^|_)(block|reads|read_set)$")
#: Builtins that iterate their arguments.
_ITERATING_CALLS = {"zip", "enumerate", "list", "tuple", "iter", "sorted",
                    "reversed", "map", "filter"}


def blocks_consumed_as_columns(source, where,
                               sanctioned=SANCTIONED_SCALAR_MAPPER_SITES):
    if not where.startswith("src/repro/") \
            or where.startswith("src/repro/mapping/"):
        return []
    offenders = []
    consumer = where.startswith(COLUMN_CONSUMERS)
    for node in ast.walk(ast.parse(source)):
        iterated, bound = [], []
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            iterated = [node.iter]
            bound = [n.id for n in ast.walk(node.target)
                     if isinstance(n, ast.Name)]
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "ReadMapper" and where not in sanctioned:
                offenders.append(f"{where}:{node.lineno} constructs "
                                 f"ReadMapper( (use make_mapper)")
            if name == "map_read" and consumer:
                offenders.append(f"{where}:{node.lineno} calls .map_read( "
                                 f"per read (use map_batch)")
            if name in _ITERATING_CALLS:
                iterated = node.args
        if not consumer:
            continue
        offenders += [
            f"{where}:{expr.lineno} iterates Read views of "
            f"{ast.unparse(expr)}" for expr in iterated
            if _READ_SET_NAME.search(
                getattr(expr, "id", getattr(expr, "attr", "")))]
        if "read" in bound:
            offenders.append(f"{where}:{iterated[0].lineno} loops over "
                             f"Read views (for read in ...)")
    return offenders


#: Where a block is held between FASTQ text and the sink, both ways:
#: the parser on the way in, decode / transport / cache / serve on the
#: way out.
COLUMNAR = ("src/repro/genomics/fastq.py", "src/repro/core/decompressor.py",
            "src/repro/core/kernels.py", "src/repro/pipeline/executor.py",
            "src/repro/api/cache.py", "src/repro/serve/")


def blocks_held_as_columns(source, where):
    """No ``Read`` is constructed where a block is its columns, and the
    FASTQ parser has no per-record path to fall back on."""
    if not where.startswith(COLUMNAR):
        return []
    offenders = [f"{where}:{node.lineno} Read("
                 for node in ast.walk(ast.parse(source))
                 if isinstance(node, ast.Call)
                 and "Read" in (getattr(node.func, "id", None),
                                getattr(node.func, "attr", None))]
    if where == "src/repro/genomics/fastq.py":
        offenders += [f"{where} mentions {text}"
                      for text in ("from_text", "parse_stream")
                      if text in source]
    return offenders


#: Per-field writes: a bit, a field, a unary code, one prefix-coded value.
_FIELD_WRITES = {"write", "write_bit", "write_unary", "encode"}


def streams_written_in_bulk(source, where):
    """The encoder holds a block as columns down to the bytes: the
    compressor has no per-read plan or event objects and makes no
    per-field write — each stream leaves through ``write_fields`` /
    ``write_run`` / ``encode_run`` / ``write_bytes``."""
    if where != "src/repro/core/compressor.py":
        return []
    offenders = []
    for node in ast.walk(ast.parse(source)):
        names = {getattr(node, "id", None), getattr(node, "attr", None),
                 getattr(node, "name", None)}
        offenders += [f"{where}:{node.lineno} {name}"
                      for name in sorted(names & {"_Event", "_ReadPlan"})]
        if isinstance(node, ast.Call) \
                and getattr(node.func, "attr", None) in _FIELD_WRITES:
            offenders.append(f"{where}:{node.lineno} .{node.func.attr}(")
    return offenders


#: What makes a class a sequential bit reader.
_READER_METHODS = {"read_unary", "read_bytes"}


def one_bit_reader(source, where):
    """``BitReader`` is the one sequential bit reader: no class outside
    ``core/bitio.py`` defines ``read_unary`` or ``read_bytes`` (a
    faster or counting reader is a change to ``BitReader``, and the
    bits a walk consumed are its readers' ``position``)."""
    if where == "src/repro/core/bitio.py":
        return []
    return [f"{where}:{item.lineno} {cls.name}.{item.name}"
            for cls in ast.walk(ast.parse(source))
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, FUNCTIONS) and item.name in _READER_METHODS]


def one_format_written(source, where):
    """v4 is the one container version written: nothing asks
    ``to_bytes`` for a version or tells ``from_blocks`` which version
    its blocks came from (a v3 file comes from the committed golden
    blobs)."""
    return [f"{where}:{node.lineno} {node.func.attr}({keyword.arg}="
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) in ("to_bytes",
                                                     "from_blocks")
            for keyword in node.keywords
            if keyword.arg in ("version", "source_version")]


#: Everything a caller sets on a session.  What a pass decodes is its
#: sinks' ``requires``, a pooled failure is retried once, and nothing
#: times a block out, so none of the three is an option.
SESSION_FIELDS = {"workers", "backend", "block_reads", "codec", "mapper",
                  "on_error"}


def options_a_caller_sets(source, where):
    """``EngineOptions`` declares exactly :data:`SESSION_FIELDS`, a
    ``/analyze`` request may override three of them
    (``REQUEST_OPTION_KEYS``), and ``imap_bounded`` takes no
    ``timeout``."""
    offenders = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and node.name == "EngineOptions":
            declared = {item.target.id for item in node.body
                        if isinstance(item, ast.AnnAssign)}
            offenders += [f"{where}:{node.lineno} EngineOptions.{name}"
                          for name in sorted(declared ^ SESSION_FIELDS)]
        elif isinstance(node, FUNCTIONS) and node.name == "imap_bounded" \
                and "timeout" in _parameters(node):
            offenders.append(f"{where}:{node.lineno} imap_bounded(timeout=")
        elif isinstance(node, ast.Assign) and "REQUEST_OPTION_KEYS" in {
                getattr(target, "id", None) for target in node.targets}:
            keys = {leaf.value for leaf in ast.walk(node.value)
                    if isinstance(leaf, ast.Constant)}
            if len(keys) != 3 or not keys <= SESSION_FIELDS:
                offenders.append(f"{where}:{node.lineno} "
                                 f"REQUEST_OPTION_KEYS {sorted(keys)}")
    return offenders


#: Names that stay deleted: the sink registry's functions and factory
#: type (the built-in sinks are a fixed table; a custom sink is piped as
#: an object), the ``Read``-object chunker (chunks are
#: ``ReadSet.subset`` views) and the SAM renderer nothing called.
DELETED_DEFINITIONS = {"register_sink", "unregister_sink", "make_sink",
                       "SinkFactory", "partition_reads", "samlike"}


def deleted_stay_deleted(source, where):
    """No module, function, class or assigned name is one of
    :data:`DELETED_DEFINITIONS`."""
    offenders = [f"{where} is a deleted module"] \
        if Path(where).stem in DELETED_DEFINITIONS else []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            names = {node.name}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names = {getattr(target, "id", None) for target in
                     getattr(node, "targets", None) or [node.target]}
        else:
            continue
        offenders += [f"{where}:{node.lineno} defines {name}"
                      for name in sorted(names & DELETED_DEFINITIONS)]
    return offenders


# ----------------------------------------------------------------------
# Extension stated once (PR 24): how a chain becomes a segment — which
# alignments it leaves open (plan) and how their results become ops,
# clips and a placement (assemble) — lives in mapping/mapper.py alone.
# A mapper kernel is a ``ReadMapper`` subclass that overrides the job
# *solver*; it restates none of that logic, and the scalar aligners (the
# oracle a solver is held to) are reached through ``_solve_jobs`` in
# mapper.py only, so no second extension path can grow beside it.
# ----------------------------------------------------------------------

_ALIGNERS = {"global_align", "prefix_free_align", "suffix_free_align"}
_SEGMENT_LOGIC = re.compile(r"^_(map_oriented|build_segment|plan|assemble)")


def extension_stated_once(source, where):
    if not where.startswith("src/repro/") \
            or where == "src/repro/mapping/alignment.py":
        return []
    in_mapper = where == "src/repro/mapping/mapper.py"
    tree = ast.parse(source)
    offenders = [
        f"{where}:{item.lineno} {cls.name}.{item.name} restates segment "
        f"logic (override _solve_jobs only)"
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        and any("ReadMapper" in (getattr(base, "id", None),
                                 getattr(base, "attr", None))
                for base in cls.bases)
        for item in cls.body if isinstance(item, FUNCTIONS)
        and _SEGMENT_LOGIC.match(item.name)]
    in_solver = {
        id(node) for func in ast.walk(tree)
        if isinstance(func, FUNCTIONS) and func.name == "_solve_jobs"
        and in_mapper for node in ast.walk(func)}
    offenders += [
        f"{where}:{node.lineno} uses {name} outside mapper.py's _solve_jobs"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        for name in [getattr(node, "id", getattr(node, "attr", None))]
        if name in _ALIGNERS and id(node) not in in_solver]
    return offenders


# ----------------------------------------------------------------------
# Per-contract fixture pairs (keyed by the code each contract carried
# while it was a lint rule; SGL005 and SGL007 are gone — see the README
# "Contracts are tests" table for what covers them)
# ----------------------------------------------------------------------

CORE = "src/repro/core/widget.py"
KERNEL = "src/repro/core/kernels.py"
PIPELINE = "src/repro/pipeline/widget.py"

FIXTURES = {
    "SGL001": {
        "contract": error_taxonomy,
        "violating": ("""\
            def parse_table(data):
                if not data:
                    raise ValueError("empty table")
            """, CORE),
        "clean": ("""\
            from repro.core.errors import CorruptArchiveError

            def parse_table(data):
                if not data:
                    raise CorruptArchiveError("empty table",
                                              stream="table")
            """, CORE),
    },
    "SGL002": {
        "contract": kernel_determinism,
        "violating": ("""\
            import random

            def encode(codes):
                return bytes(codes)
            """, KERNEL),
        "clean": ("""\
            import os

            def resolve_codec(name):
                return os.environ.get("SAGE_CODEC", name)
            """, KERNEL),
    },
    "SGL003": {
        "contract": options_decided_once,
        "violating": ("""\
            def run(data, *, workers=None, backend=None):
                return data
            """, PIPELINE),
        "clean": ("""\
            def run(data, *, options=None):
                return data
            """, PIPELINE),
    },
    "SGL004": {
        "contract": sink_contract,
        "violating": ("""\
            class CountSink:
                def consume(self, block):
                    pass

                def finish(self):
                    return 0
            """, PIPELINE),
        "clean": ("""\
            class CountSink:
                requires = ("sequence",)

                def consume(self, index, block):
                    pass

                def finish(self):
                    return 0
            """, PIPELINE),
    },
    "SGL006": {
        "contract": mmap_lifetime,
        "violating": ("""\
            class BlockCache:
                def load(self, archive, index):
                    self._view = archive.block_payload(index)
            """, PIPELINE),
        "clean": ("""\
            class BlockCache:
                def load(self, archive, index):
                    self._data = bytes(archive.block_payload(index))
            """, PIPELINE),
    },
}


class TestRuleFixtures:
    @pytest.mark.parametrize("code", sorted(FIXTURES))
    def test_violating_snippet_flagged(self, code):
        source, where = FIXTURES[code]["violating"]
        assert on_snippet(FIXTURES[code]["contract"], source, where) != []

    @pytest.mark.parametrize("code", sorted(FIXTURES))
    def test_clean_snippet_passes(self, code):
        source, where = FIXTURES[code]["clean"]
        assert on_snippet(FIXTURES[code]["contract"], source, where) == []

    @pytest.mark.parametrize("code", sorted(set(FIXTURES) - {"SGL004"}))
    def test_out_of_scope_path_ignored(self, code):
        # The same violating snippet outside the contract's scope is no
        # offender (the sink contract applies everywhere a sink can be
        # written, so it has no outside).
        source, _ = FIXTURES[code]["violating"]
        assert on_snippet(FIXTURES[code]["contract"], source,
                          "scripts/helper.py") == []


# ----------------------------------------------------------------------
# Contract-specific edges
# ----------------------------------------------------------------------

class TestErrorTaxonomyEdges:
    def test_swallowed_broad_except(self):
        assert on_snippet(error_taxonomy, """\
            def decode_block(payload):
                try:
                    return payload[0]
                except Exception:
                    pass
            """, CORE) != []

    def test_unguarded_int_on_parsed_text(self):
        assert on_snippet(error_taxonomy, """\
            def decode_names(payload):
                lines = payload.decode("utf-8").split("\\n")
                return int(lines[0])
            """, CORE) != []

    def test_guarded_int_is_clean(self):
        assert on_snippet(error_taxonomy, """\
            from repro.core.errors import CorruptArchiveError

            def decode_names(payload):
                lines = payload.decode("utf-8").split("\\n")
                try:
                    return int(lines[0])
                except ValueError as exc:
                    raise CorruptArchiveError(str(exc)) from exc
            """, CORE) == []

    def test_numeric_cast_without_text_parse_is_clean(self):
        # int() on numpy scalars saturates decode kernels; without
        # text parsing in the function it is not a taxonomy risk.
        assert on_snippet(error_taxonomy, """\
            def decode_positions(arr):
                return [int(x) for x in arr]
            """, CORE) == []

    def test_non_decode_function_may_raise_valueerror(self):
        assert on_snippet(error_taxonomy, """\
            def check_config(cfg):
                raise ValueError("caller mistake")
            """, CORE) == []

    def test_wire_class_constructor_in_scope(self):
        assert on_snippet(error_taxonomy, """\
            class Table:
                def __init__(self, widths):
                    if not widths:
                        raise ValueError("empty")

                @classmethod
                def deserialize(cls, payload):
                    return cls(list(payload))
            """, CORE) != []


class TestKernelDeterminismEdges:
    def test_env_read_outside_resolver(self):
        assert on_snippet(kernel_determinism, """\
            import os
            LEVEL = os.environ.get("SAGE_LEVEL", "O4")
            """, KERNEL) != []

    def test_non_kernel_module_may_import_time(self):
        assert on_snippet(kernel_determinism, "import time\n",
                          "src/repro/pipeline/bench.py") == []

    @pytest.mark.parametrize("module", [
        "core/huffman.py", "core/quality.py", "core/new_module.py",
        "mapping/new_module.py"])
    def test_scope_is_computed(self, module):
        # Every module under core/ and mapping/ is in scope by its
        # path, so one that starts deciding archive bytes is covered the
        # day it is created (the hand-kept list had missed six).
        assert on_snippet(kernel_determinism, "import time\n",
                          f"src/repro/{module}") != []


class TestOptionsThreadingEdges:
    def test_options_module_is_exempt(self):
        assert on_snippet(options_decided_once, """\
            def resolve(*, workers=None, backend=None):
                return workers
            """, "src/repro/core/options.py") == []

    def test_finding_names_the_knobs(self):
        (offender,) = on_snippet(options_decided_once, """\
            def run(data, *, workers=None, block_reads=2):
                return data
            """, PIPELINE)
        assert "block_reads" in offender
        assert "workers" in offender

    def test_options_and_kernel_are_decided_once(self):
        """A session fixes its options and a decoder its kernel: under
        ``src/`` only the session constructors (and the executor
        factory they feed) take ``options``, only
        ``SAGeDecompressor.__init__`` takes ``codec``, no other function
        outside ``core/options.py`` takes an engine knob, and the front
        ends (``cli.py``, ``serve/``) do not mention a codec at all."""
        assert on_tree(options_decided_once, "src") == []
        # The allow-list is exact: without it precisely the sanctioned
        # sites fire, so an entry cannot outlive the code it excuses.
        unsanctioned = on_tree(
            partial(options_decided_once, sanctioned={}), "src")
        assert sorted(o.split(" takes ")[0] for o in unsanctioned) \
            == sorted(SANCTIONED_KNOB_SITES)
        assert on_snippet(options_decided_once, """\
            class SAGeDataset:
                def to_fastq(self, sink, *, options=None):
                    return sink

            class SAGeCompressor:
                def compress(self, reads, codec="numpy"):
                    return reads
            """, "src/repro/api/dataset.py") != []
        assert on_snippet(options_decided_once, "CODECS = ('codec',)\n",
                          "src/repro/serve/server.py") != []

    def test_import_walk_sees_relative_and_function_level_imports(self):
        # The evidence that the import pins below can fire.
        source = textwrap.dedent("""\
            import repro.baselines.spring

            def late():
                from ..api import dataset
                from . import kernels
            """)
        assert [name for _node, name
                in imported_names(source, "repro.core")] == [
            "repro.baselines.spring", "repro.api.dataset",
            "repro.core.kernels"]

    def test_engine_layers_never_import_the_facade(self):
        """``EngineOptions`` sits under the engines: nothing below the
        facade imports ``repro.api``, at module level or inside a
        function."""
        assert importers_of("repro.api", "core", "pipeline", "mapping",
                            "genomics") == []

    def test_core_never_imports_baselines(self):
        """The archive's bytes depend on nothing filed under
        "baselines": the entropy/LZ coders the header stream and the
        quality codec use live in ``core/`` and ``baselines/`` imports
        them from there, not the other way round."""
        assert importers_of("repro.baselines", "core") == []

    def test_stream_executor_stays_behind_the_facade(self):
        """``StreamExecutor`` is internal wiring of ``SAGeDataset``:
        only its home layers (``api/``, ``pipeline/``) import it, so the
        engine can change without breaking consumers."""
        outside = sorted({path.stem for path in (SRC / "repro").iterdir()}
                         - {"api", "pipeline", "__pycache__"})
        assert importers_of("repro.pipeline.executor.StreamExecutor",
                            *outside) == []
        assert importers_of("repro.pipeline.StreamExecutor", *outside) == []
        assert importers_of("repro.pipeline.executor.StreamExecutor",
                            "api") != []       # the walk sees the name

    def test_archive_shape_fork_stays_deleted(self):
        """One block shape, one block decode: the flat/blocked switch
        (``is_blocked``), the block-to-flat-archive adapter and the
        second fallback-naming rule (``header_base``) may not reappear
        under ``src/`` — as a definition, attribute, argument or
        keyword."""
        assert mentions("is_blocked", "block_as_archive",
                        "header_base") == []

    def test_format_and_session_are_stated_once(self):
        """``SAGeConfig`` says what the bytes are, ``EngineOptions`` how
        the session runs — only what a caller sets
        (``options_a_caller_sets``) — ``block_reads`` alone partitions,
        the facade has one write path, and the entry points nothing
        called stay deleted (``deleted_stay_deleted``)."""
        from dataclasses import fields

        from repro.core import SAGeConfig
        from repro.core.options import EngineOptions

        # ``mapper`` is a name clash (kernel name here, the
        # ``MapperConfig`` there); the one shared *meaning* is
        # ``mapper`` <-> ``mapper_kernel``, related by
        # ``EngineOptions.compressor_config`` and nothing else.
        # ``codec`` is a decode kernel: the encoder has none.
        assert {f.name for f in fields(EngineOptions)} \
            & {f.name for f in fields(SAGeConfig)} == {"mapper"}
        assert {f.name for f in fields(EngineOptions)} == SESSION_FIELDS

        facade = (SRC / "repro/api/dataset.py").read_text()
        assert facade.count(".compress(") == 1
        assert "SAGeCompressor" not in facade
        assert mentions("blocked", "compress_blocked") == []

        assert on_tree(options_a_caller_sets, "src") == []
        for violating, where in (
                ("""\
                 class EngineOptions:
                     workers: int = 1
                     backend: str = "auto"
                     block_reads: int = 0
                     codec: str = "auto"
                     mapper: str = "auto"
                     on_error: str = "raise"
                     streams: tuple | None = None
                 """, "src/repro/core/options.py"),
                ('REQUEST_OPTION_KEYS = frozenset({"workers", "backend", '
                 '"on_error", "block_retries"})\n',
                 "src/repro/serve/server.py"),
                ('REQUEST_OPTION_KEYS = frozenset({"workers", "backend", '
                 '"streams"})\n', "src/repro/serve/server.py"),
                ("""\
                 def imap_bounded(executor, fn, items, window, timeout=None):
                     return executor.map(fn, items, timeout=timeout)
                 """, "src/repro/core/blocks.py")):
            assert on_snippet(options_a_caller_sets, violating,
                              where) != [], violating
        assert on_snippet(options_a_caller_sets,
                          'REQUEST_OPTION_KEYS = frozenset({"workers", '
                          '"backend", "on_error"})\n',
                          "src/repro/serve/server.py") == []

        assert on_tree(deleted_stay_deleted, "src") == []
        for violating, where in (
                ("""\
                 def register_sink(name, factory, *, replace=False):
                     _REGISTRY[name] = factory
                 """, "src/repro/api/sinks.py"),
                ("def unregister_sink(name):\n    pass\n",
                 "src/repro/api/sinks.py"),
                ("def make_sink(name, dataset):\n"
                 "    return _REGISTRY[name](dataset)\n",
                 "src/repro/api/sinks.py"),
                ("SinkFactory = Callable[['SAGeDataset'], Sink]\n",
                 "src/repro/api/sinks.py"),
                ("def partition_reads(reads, block_reads):\n"
                 "    yield ReadSet(list(reads))\n",
                 "src/repro/genomics/reads.py"),
                ("def to_sam_records(read, mapping):\n    return []\n",
                 "src/repro/mapping/samlike.py")):
            assert on_snippet(deleted_stay_deleted, violating,
                              where) != [], violating
        assert on_snippet(deleted_stay_deleted,
                          "sink = _BUILT_IN[name](dataset)\n",
                          "src/repro/api/sinks.py") == []

    def test_one_stream_writer_and_no_thread_backend(self):
        """A codec kernel is a decode strategy: the compressor writes
        through ``BitWriter`` and does not import the kernel module, so
        ``core/kernels.py`` needs no function-level import to dodge a
        cycle; the second writer and the scheduler that lost to
        ``serial`` stay deleted."""
        from repro.core.options import BACKENDS

        assert importers_of("repro.core.kernels", "core/compressor") == []
        kernels = ast.parse((SRC / "repro/core/kernels.py").read_text())
        assert [node.lineno for scope in ast.walk(kernels)
                if isinstance(scope, (ast.FunctionDef, ast.ClassDef))
                for node in ast.walk(scope)
                if isinstance(node, ast.ImportFrom) and node.level] == []
        assert files_mentioning("TokenWriter", "new_writer") == []
        assert "thread" not in BACKENDS

    def test_one_reader_one_recovery_rule_one_format_written(self):
        """The read side states each decision once: one bit reader
        class, one failure policy that loses a block (``skip``, which
        salvage runs — no second kernel is tried), and one container
        version written (v3 stays readable)."""
        from repro.core.options import ON_ERROR

        project = ("src", "tests", "examples", "benchmarks")
        assert on_tree(one_bit_reader, *project) == []
        assert on_snippet(one_bit_reader, """\
            class FastReader:
                def read_bytes(self, count):
                    return b""
            """, "src/repro/core/kernels.py") != []
        assert on_snippet(one_bit_reader, """\
            class CountingReader(BitReader):
                def read_unary(self):
                    return super().read_unary()
            """, "src/repro/hardware/sage_units.py") != []
        assert on_tree(one_format_written, *project) == []
        for violating in ("blob = archive.to_bytes(version=3)\n",
                          "SAGeArchive.from_blocks(blocks, level=level,"
                          " source_version=3)\n"):
            assert on_snippet(one_format_written, violating,
                              "tests/test_widget.py") != [], violating
        assert on_snippet(one_format_written,
                          "crc = digest.to_bytes(4, 'big')\n",
                          "src/repro/core/widget.py") == []
        assert "salvage" not in ON_ERROR
        assert ON_ERROR == ("raise", "skip")

    def test_decoded_blocks_stay_columnar(self):
        """``ReadSet`` is the one read container and its columns its
        one storage: no ``ReadBatch``, no ``batch=`` way in, no second
        attribute standing for "list or columns".  A block decode
        builds it and every stage up to the sink consumes it: the
        decode, transport, cache and serve layers never construct a
        ``Read``, ``format_read`` is nobody's inner loop, and
        ``fastq.write`` is the one function that turns base codes into
        FASTQ text.  The way in obeys the same contract: the FASTQ
        parser fills the columns a block at a time and has no
        per-record ``Read.from_text`` path (``blocks_held_as_columns``).
        At the sink the block is still its columns:
        ``blocks_consumed_as_columns`` above."""
        src = SRC / "repro"
        trees = {path: ast.parse(path.read_text())
                 for path in sorted(src.rglob("*.py"))}

        def calls(tree, name):
            return [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and name in (getattr(node.func, "id", None),
                                 getattr(node.func, "attr", None))]

        offenders = files_mentioning("ReadBatch")
        offenders += [f"{path.relative_to(src)}:{node.lineno} batch="
                      for path, tree in trees.items()
                      for node in ast.walk(tree)
                      if isinstance(node, (ast.keyword, ast.arg))
                      and node.arg == "batch"]
        offenders += on_tree(blocks_held_as_columns, "src")
        for violating in (
                "reads = [Read.from_text(b, q, header=h) for b, q, h in x]\n",
                "yield Read(codes, quality, header)\n",
                "return ReadSet(list(parse_stream(handle)))\n"):
            assert on_snippet(blocks_held_as_columns, violating,
                              "src/repro/genomics/fastq.py") != [], violating
        assert on_snippet(blocks_held_as_columns,
                          "block = [Read(c) for c in codes]\n",
                          "src/repro/serve/server.py") != []
        assert on_snippet(blocks_held_as_columns,
                          "read = Read.from_text(bases)\n",
                          "src/repro/genomics/simulator.py") == []
        offenders += [f"{path.relative_to(src)}:{line} format_read("
                      for path, tree in trees.items()
                      for line in calls(tree, "format_read")]
        assert offenders == []
        [read_set] = [node for node in trees[src / "genomics/reads.py"].body
                      if isinstance(node, ast.ClassDef)
                      and node.name == "ReadSet"]
        stored = {node.attr for node in ast.walk(read_set)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store)
                  and getattr(node.value, "id", None) == "self"}
        assert stored == {"name", "codes", "offsets", "quality", "headers",
                          "_views"}           # the columns + a view cache
        renderers = [node.name
                     for node in trees[src / "genomics/fastq.py"].body
                     if isinstance(node, ast.FunctionDef)
                     and calls(node, "to_ascii")]
        assert renderers == ["write"]

        # The sink side of the same contract (PR 22): built-in
        # consumers take the columns, map a block at a time on the
        # session's kernel, and the engine knows nothing of analysis.
        assert on_tree(blocks_consumed_as_columns, "src") == []
        unsanctioned = on_tree(
            partial(blocks_consumed_as_columns, sanctioned={}), "src")
        assert sorted({o.split(":")[0] for o in unsanctioned}) \
            == sorted(SANCTIONED_SCALAR_MAPPER_SITES)
        for violating in (
                "for read in block:\n    total += read.codes.size\n",
                "sizes = [r.codes.size for r in hw_reads]\n",
                "pairs = list(zip(read_set, mappings))\n",
                "for a, b in enumerate(zip(block.reads, other)):\n"
                "    pass\n",
                "hit = mapper.map_read(codes)\n",
                "mapper = ReadMapper(reference, config)\n"):
            assert on_snippet(blocks_consumed_as_columns, violating,
                              "src/repro/analysis/widget.py") != [], violating
        assert on_snippet(blocks_consumed_as_columns, """\
            for index, block in enumerate(blocks):
                for mapping in mapper.map_batch(block.read_codes()):
                    n_reads += len(block)
            """, "src/repro/analysis/widget.py") == []
        # Read views stay a convenience for user-facing code.
        assert on_snippet(blocks_consumed_as_columns,
                          "for read in block:\n    yield read\n",
                          "src/repro/api/dataset.py") == []
        executor = "pipeline/executor"
        assert importers_of("repro.mapping", executor) == []
        assert importers_of("repro.analysis", executor) == []
        assert importers_of("repro.mapping", "analysis/properties") != []
        assert [node.lineno for scope in ast.walk(
                    trees[src / "pipeline/executor.py"])
                if isinstance(scope, FUNCTIONS)
                for node in ast.walk(scope)
                if isinstance(node, (ast.Import, ast.ImportFrom))] == []
        assert files_mentioning("PropertySink", "iter_reads") == []

    def test_streams_leave_in_bulk(self):
        """The encoder's side of the same contract: a block's mapped and
        unmapped reads become stream fields as columns, and each stream
        leaves in bulk (``streams_written_in_bulk``); the per-field
        writers stay, as the references the bulk ones are tested
        against."""
        assert on_tree(streams_written_in_bulk, "src") == []
        for violating in ("mbta.write_bit(plan.reverse)\n",
                          "side.write(len(extra), 2)\n",
                          "tables['count'].encode(count, mmpga, mmpga)\n",
                          "guide.write_unary(idx)\n",
                          "events: list[_Event] = []\n",
                          "class _ReadPlan:\n    pass\n"):
            assert on_snippet(streams_written_in_bulk, violating,
                              "src/repro/core/compressor.py") != [], violating
        assert on_snippet(streams_written_in_bulk,
                          "writer.write_fields(values, widths)\n"
                          "table.encode_run(values, guide, array)\n",
                          "src/repro/core/compressor.py") == []
        assert on_snippet(streams_written_in_bulk, "writer.write(1, 1)\n",
                          "src/repro/core/container.py") == []

    def test_extension_is_stated_once(self):
        """A mapper kernel overrides the job solver and nothing else of
        the chain -> segment logic; the scalar aligners are called from
        ``ReadMapper._solve_jobs`` only (``extension_stated_once``)."""
        assert on_tree(extension_stated_once, "src") == []
        for violating, where in (
                ("""\
                 class BatchReadMapper(ReadMapper):
                     def _map_oriented(self, oriented, hits):
                         return None
                 """, "src/repro/mapping/batch.py"),
                ("""\
                 class GpuMapper(mapper.ReadMapper):
                     def _assemble_segment(self, plan, solved):
                         return None
                 """, "src/repro/mapping/gpu.py"),
                ("""\
                 class BatchReadMapper(ReadMapper):
                     def _plan_segment(self, *args):
                         return None
                 """, "src/repro/mapping/batch.py"),
                ("res = global_align(read_gap, cons_gap)\n",
                 "src/repro/mapping/batch.py"),
                ("res = alignment.suffix_free_align(tail, window)\n",
                 "src/repro/analysis/variants.py"),
                ("""\
                 class ReadMapper:
                     def _plan_segment(self, head, window):
                         return prefix_free_align(head, window)
                 """, "src/repro/mapping/mapper.py")):
            assert on_snippet(extension_stated_once, violating,
                              where) != [], violating
        assert on_snippet(extension_stated_once, """\
            from .alignment import global_align

            class ReadMapper:
                def _solve_jobs(self, jobs):
                    return [global_align(*job) for job in jobs]

            class BatchReadMapper(ReadMapper):
                def _solve_jobs(self, jobs):
                    return solve_extension_jobs(jobs, self.stats)
            """, "src/repro/mapping/mapper.py") == []
        # A _plan_read on a class that is no ReadMapper is not segment
        # logic.
        assert on_snippet(extension_stated_once, """\
            class SAGeCompressor:
                def _plan_read(self, read, mapping):
                    return None
            """, "src/repro/core/compressor.py") == []


class TestSinkContractEdges:
    def test_protocol_class_is_exempt(self):
        assert on_snippet(sink_contract, """\
            from typing import Protocol

            class Sink(Protocol):
                def consume(self, index, block): ...
                def finish(self): ...
            """, PIPELINE) == []

    def test_requires_none_is_an_explicit_declaration(self):
        assert on_snippet(sink_contract, """\
            class FullDecodeSink:
                requires = None

                def consume(self, index, block):
                    pass

                def finish(self):
                    return None
            """, PIPELINE) == []

    def test_consume_gap_arity(self):
        offenders = on_snippet(sink_contract, """\
            class GapSink:
                requires = None

                def consume(self, index, block):
                    pass

                def consume_gap(self, gap, extra):
                    pass

                def finish(self):
                    return None
            """, PIPELINE)
        assert len(offenders) == 1 and "consume_gap" in offenders[0]


class TestMmapLifetimeEdges:
    def test_memoryview_on_self(self):
        assert on_snippet(mmap_lifetime, """\
            class Holder:
                def pin(self, buf):
                    self.view = memoryview(buf)
            """, PIPELINE) != []

    def test_local_view_is_clean(self):
        assert on_snippet(mmap_lifetime, """\
            def checksum(archive, index):
                view = archive.block_payload(index)
                return len(view)
            """, PIPELINE) == []

    def test_container_module_is_exempt(self):
        assert on_snippet(mmap_lifetime, """\
            class SAGeArchive:
                def _pin(self, buf):
                    self._view = memoryview(buf)
            """, "src/repro/core/container.py") == []


# ----------------------------------------------------------------------
# Dogfood: the real tree stays clean
# ----------------------------------------------------------------------

class TestDogfood:
    def test_repo_is_clean(self):
        # Each contract scopes itself by path, so every one walks the
        # same roots: the package plus the two trees users copy sinks
        # from.
        for fixture in FIXTURES.values():
            assert on_tree(fixture["contract"],
                           "src", "examples", "benchmarks") == []
        # Exceptions are allow-list entries above, not comments in
        # src/, and the package carries no trace of the checker.
        assert files_mentioning("sage-lint:", "SGL0",
                                "sage_error_boundary") == []
