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
# computed scope, not a list somebody keeps — consults a clock or an
# RNG, and nothing under src/ reads the environment: a kernel is named
# where a decoder or a config is built, never in a variable.
# ----------------------------------------------------------------------

_NONDETERMINISTIC = {"random", "time", "datetime", "secrets", "uuid"}
_ENVIRONMENT = {"environ", "getenv"}


def kernel_determinism(source, where):
    if not where.startswith("src/"):
        return []
    decides_bytes = where.startswith(("src/repro/core/",
                                      "src/repro/mapping/"))
    offenders = []
    for node in ast.walk(ast.parse(source)):
        modules = []
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        offenders.extend(f"{where}:{node.lineno} imports {module}"
                         for module in modules if decides_bytes
                         and module.split(".")[0] in _NONDETERMINISTIC)
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            offenders.extend(f"{where}:{node.lineno} imports os.{alias.name}"
                             for alias in node.names
                             if alias.name in _ENVIRONMENT)
        if (isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) == "os"
                and node.attr in _ENVIRONMENT):
            offenders.append(f"{where}:{node.lineno} reads os.{node.attr}")
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

ENGINE_KNOBS = {"workers", "backend", "block_reads", "codec"}

#: site -> why a knob-named parameter there is not a re-decided option.
SANCTIONED_KNOB_SITES = {
    "src/repro/core/decompressor.py::SAGeDecompressor.__init__":
        "a decoder is where its kernel is named",
    "src/repro/genomics/fastq.py::iter_read_sets":
        "block_reads is the parser's batching unit, not an engine knob "
        "here",
    "src/repro/pipeline/endtoend.py::batches_for_dataset":
        "block_reads is the dataset batching unit, not an engine knob "
        "here",
    "src/repro/core/container.py::SAGeArchive.from_blocks":
        "block_reads is the header field written verbatim, not a "
        "partition decision",
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
# The built-in consumers — everything under pipeline/, analysis/,
# hardware/ and baselines/ — take a block's columns (``block.codes,
# block.offsets`` for a mapper) and map it in one ``map_batch`` call:
# they never iterate or index a read set into ``Read`` views and never
# call the scalar ``map_read`` per read; and outside mapping/ nothing
# constructs the scalar ``ReadMapper`` by hand (``make_mapper``
# decides), except the sanctioned site below.
# ----------------------------------------------------------------------

COLUMN_CONSUMERS = ("src/repro/pipeline/", "src/repro/analysis/",
                    "src/repro/hardware/", "src/repro/baselines/")

#: site -> why a hard-wired scalar ``ReadMapper(`` there is not a fork
#: of the session's mapper choice.
SANCTIONED_SCALAR_MAPPER_SITES = {
    "src/repro/baselines/spring.py":
        "the Spring baseline maps on the scalar kernel, its own "
        "mechanism and not a session's choice: "
        "benchmarks/test_fig18_comptime.py times that mapper's "
        "map_batch call as Spring's mismatch finding",
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
        if isinstance(node, ast.Subscript) and _READ_SET_NAME.search(
                getattr(node.value, "id", getattr(node.value, "attr", ""))):
            offenders.append(f"{where}:{node.lineno} indexes a Read view "
                             f"{ast.unparse(node)}")
    return offenders


#: Where a block is held between FASTQ text and the sink, both ways:
#: the parser on the way in, decode / transport / serve on the way out.
COLUMNAR = ("src/repro/genomics/fastq.py", "src/repro/core/decompressor.py",
            "src/repro/core/kernels.py", "src/repro/pipeline/executor.py",
            "src/repro/serve/")


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


#: Writes that bypass the field emitter: a bit, a field, a unary code,
#: one prefix-coded value, a same-width run, a prefix-coded run.
_FIELD_WRITES = {"write", "write_bit", "write_unary", "encode", "write_run",
                 "encode_run"}

#: Public surfaces that say how a field is written, exactly: the
#: writer's five field writers (plus its bit count and bytes), and the
#: table's one columnar guide-code method (over ``classify``) beside
#: what builds, reads and (de)serializes a table — no other encoder.
WRITE_SURFACES = {
    "src/repro/core/bitio.py": ("BitWriter", {
        "write", "write_bit", "write_fields", "write_bytes",
        "align_to_byte", "bit_length", "getvalue"}),
    "src/repro/core/prefix_codes.py": ("AssociationTable", {
        "from_histogram", "widths_np", "classify", "guide_codes", "decode",
        "serialize", "deserialize"}),
}


def streams_written_in_bulk(source, where):
    """The encoder holds a block as columns down to the bytes and has
    one field emitter: the compressor has no per-read plan or event
    objects, makes no per-field or per-run write, and calls
    ``write_fields`` only in ``_Fields.emit``; ``BitWriter`` and
    ``AssociationTable`` have exactly the public methods of
    :data:`WRITE_SURFACES`."""
    tree = ast.parse(source)
    if where in WRITE_SURFACES:
        owner, surface = WRITE_SURFACES[where]
        return [f"{where}:{cls.lineno} {owner} {sorted(found ^ surface)}"
                for cls in ast.walk(tree)
                if isinstance(cls, ast.ClassDef) and cls.name == owner
                for found in [{item.name for item in cls.body
                               if isinstance(item, FUNCTIONS)
                               and not item.name.startswith("_")}]
                if found != surface]
    if where != "src/repro/core/compressor.py":
        return []
    emitter = {id(node) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) and cls.name == "_Fields"
               for func in cls.body
               if isinstance(func, FUNCTIONS) and func.name == "emit"
               for node in ast.walk(func)}
    offenders = []
    for node in ast.walk(tree):
        names = {getattr(node, "id", None), getattr(node, "attr", None),
                 getattr(node, "name", None)}
        offenders += [f"{where}:{node.lineno} {name}"
                      for name in sorted(names & {"_Event", "_ReadPlan"})]
        called = isinstance(node, ast.Call) \
            and getattr(node.func, "attr", None)
        if called in _FIELD_WRITES or (called == "write_fields"
                                       and id(node) not in emitter):
            offenders.append(f"{where}:{node.lineno} .{called}(")
    return offenders


#: The lists of the fork the numpy kernel's read construction replaced:
#: substitution-only rows, the indel/chimeric/corner records and their
#: events, and the count of optimistically committed substitutions.
_FORK_NAMES = {"simple_idx", "simple_rev", "complex_recs", "events",
               "n_subs"}


def reads_constructed_once(source, where):
    """The numpy kernel rebuilds every mapped read in one construction:
    ``core/kernels.py`` reverse-complements no read on its own, makes no
    ``np.concatenate`` / ``np.empty`` call and assigns no slice inside a
    loop (a read built from its parts, or written into its slice, one
    at a time), rolls back no substitution (``del rows[-n:]``), names
    none of the lists of the simple/complex split, and calls the
    reference walk (``iter_read_codes``) only as the ``python`` kernel:
    the numpy kernel has no block it hands over."""
    if where != "src/repro/core/kernels.py":
        return []
    tree = ast.parse(source)
    reference = {id(node) for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) and cls.name == "PythonKernel"
                 for node in ast.walk(cls)}
    looped = {id(node) for loop in ast.walk(tree)
              if isinstance(loop, (ast.For, ast.While))
              for stmt in loop.body for node in ast.walk(stmt)}
    offenders = []
    for node in ast.walk(tree):
        called = isinstance(node, ast.Call) and getattr(
            node.func, "attr", getattr(node.func, "id", None))
        if called == "reverse_complement" or (
                called in ("concatenate", "empty") and id(node) in looped):
            offenders.append(f"{where}:{node.lineno} {called}(")
        elif isinstance(node, ast.Assign) and id(node) in looped and any(
                isinstance(target, ast.Subscript)
                and isinstance(target.slice, ast.Slice)
                for target in node.targets):
            offenders.append(f"{where}:{node.lineno} slice written in a loop")
        elif isinstance(node, ast.Delete):
            offenders.append(f"{where}:{node.lineno} del (a rollback)")
        elif getattr(node, "id", None) in _FORK_NAMES:
            offenders.append(f"{where}:{node.lineno} {node.id}")
        elif called == "iter_read_codes" and id(node) not in reference:
            offenders.append(f"{where}:{node.lineno} iter_read_codes( "
                             f"outside the python kernel")
    return offenders


#: Where a block is mapped from its columns: ``map_batch(x.codes,
#: x.offsets)``, never a list of per-read views.
COLUMN_MAPPERS = ("src/repro/core/compressor.py",
                  "src/repro/analysis/properties.py",
                  "src/repro/analysis/variants.py",
                  "src/repro/baselines/spring.py")


#: The per-read object form of a mapping, which no module under
#: ``src/`` names: a mapping is columns from the traceback on.
PER_READ_MAPPING_NAMES = {"MappingResult", "MappedSegment", "EditOp",
                          "map_read"}


def mappings_consumed_as_columns(source, where):
    """The mapper writes a block's mappings as columns from the
    traceback on and hands them over as one table, the one form they
    take: nothing in ``src/``, ``mapping/`` included, names
    ``MappingResult``, ``MappedSegment``, ``EditOp`` or ``map_read``
    (defined, imported, called or read) or an attribute ``.segments`` or
    ``.ops``, the compressor no ``attrgetter``, and ``MappedBlock`` is
    no sequence of per-read objects (no ``__iter__`` / ``__getitem__``,
    no ``Sequence`` base); no caller outside ``mapping/`` hands
    ``map_batch`` a ``read_codes()`` list, and the block callers pass
    ``codes, offsets``; the batched mapper packs k-mers through
    ``seq.kmer_codes`` only (no shift loop of its own)."""
    if not where.startswith("src/repro/"):
        return []
    offenders = []
    tree = ast.parse(source)
    for node in ast.walk(tree):
        name = node.name if isinstance(
            node, (ast.alias, ast.ClassDef) + FUNCTIONS) \
            else getattr(node, "id", getattr(node, "attr", None))
        if isinstance(name, str) and (
                name.split(".")[-1] in PER_READ_MAPPING_NAMES
                or isinstance(node, ast.Attribute)
                and name in ("segments", "ops")):
            offenders.append(f"{where}:{node.lineno} {name}")
        if where == "src/repro/core/compressor.py" and name == "attrgetter":
            offenders.append(f"{where}:{node.lineno} {name}")
        if isinstance(node, ast.ClassDef) and node.name == "MappedBlock":
            offenders += [
                f"{where}:{item.lineno} MappedBlock.{item.name}"
                for item in node.body
                if isinstance(item, FUNCTIONS)
                and item.name in ("__iter__", "__getitem__")]
            offenders += [
                f"{where}:{node.lineno} MappedBlock({ast.unparse(base)})"
                for base in node.bases if "Sequence" in ast.unparse(base)]
        if where == "src/repro/mapping/batch.py" \
                and isinstance(node, (ast.For, ast.While)) \
                and any(isinstance(inner, (ast.BinOp, ast.AugAssign))
                        and isinstance(inner.op, ast.LShift)
                        for inner in ast.walk(node)):
            offenders.append(f"{where}:{node.lineno} packs k-mers in a "
                             f"shift loop (use seq.kmer_codes)")
        if not (isinstance(node, ast.Call)
                and getattr(node.func, "attr", None) == "map_batch"):
            continue
        args = [ast.unparse(arg) for arg in node.args]
        if not where.startswith("src/repro/mapping/") \
                and any("read_codes(" in arg for arg in args):
            offenders.append(f"{where}:{node.lineno} map_batch(read_codes())")
        if where in COLUMN_MAPPERS and (
                len(args) != 2 or not args[0].endswith(".codes")
                or not args[1].endswith(".offsets")):
            offenders.append(f"{where}:{node.lineno} "
                             f"map_batch({', '.join(args)})")
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
    """v5 is the one container version written for fresh blocks:
    nothing asks ``to_bytes`` for a version or tells ``from_blocks``
    which version its blocks came from — a v3 source re-saves as v4 and
    ``from_blocks`` reads v4 off walk-layout quality itself (a v3 or v4
    file comes from the committed golden blobs)."""
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
SESSION_FIELDS = {"workers", "backend", "block_reads", "codec", "on_error"}


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
#: ``ReadSet.subset`` views), the SAM renderer nothing called, the
#: FTL's grouped GC, the device's batch iterator and the thread-scaling
#: rate that only tests called, the second compressor
#: (``SAGeCompressor.compress`` cuts and pools a read stream itself),
#: the decode-kernel extension point (the two kernels are a fixed
#: table that ``resolve_kernel`` reads), the decode pool's
#: initializer (a pool outlives a pass; a task names its archive file),
#: the stream writers beside the one field emitter (a run of fields
#: is ``write_fields``, a guide code ``AssociationTable.guide_codes``;
#: the per-value oracles are in ``tests/conftest.py``), and the server's
#: wrapper around its sessions and its projection of ``describe()``
#: (``sage serve`` holds ``name -> SAGeDataset`` and ``/inspect`` is
#: the description), the salvage pass with its report (recovery is
#: any pass on an ``on_error="skip"`` session, reported by its stats),
#: the batch mapper's bit-packed pre-alignment filter (stage 2 compares
#: bases), and the mapper's second extension path and its wrappers
#: (anchored reads of either kernel go through ``ReadMapper._extend``,
#: and the clip test is ``ReadMapper._soft_clipped``), and the extension
#: solver's bucketed DP with its byte cube and cap (jobs run as
#: bit-vector lanes, capped by ``_LANE_CHUNK_BYTES``), and the mapper's
#: per-read object form — the op, segment and result records, the
#: one-read entry point and the flattening of records into columns (a
#: mapping is columns from the traceback on), and stage 3's second DP
#: recurrence with its row type, padded planes and flank cap (stage 3
#: steps its flanks as the extension's lanes, ``step_lanes``, and the
#: lane width bounds a flank's window).
DELETED_DEFINITIONS = {"register_sink", "unregister_sink", "make_sink",
                       "SinkFactory", "partition_reads", "samlike",
                       "gc_genomic_unit", "iter_batches", "software_rate_at",
                       "BlockCompressor", "DecodedBlockCache", "SingleFlight",
                       "CacheStats", "CodecKernel", "register_kernel",
                       "get_kernel", "resolve_codec", "_init_decode_worker",
                       "write_run", "write_unary", "encode_run",
                       "class_for_value", "_ServedArchive", "_inspect_sync",
                       "SalvageReport", "salvage", "pack_bases",
                       "_byte_masks", "_shd_counts", "_cons_phases",
                       "_map_oriented", "_is_clip", "_batched_last_rows",
                       "_solve_bucket", "_EXTENSION_CELL_CAP", "EditOp",
                       "MappedSegment", "MappingResult", "map_read",
                       "from_results", "_column", "dp_last_rows",
                       "row_dtype", "_gather_rows", "_VERIFY_CAP"}


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


def hardware_decodes_once(source, where):
    """The hardware model is one session decode per block: nothing
    under ``hardware/`` opens stream readers of its own (imports
    ``BitReader``), pins a decode kernel (passes ``codec=``) or defines
    a second equivalence check (``verify``), and the reference walk
    takes no caller-supplied readers (``iter_read_codes(readers=)``)."""
    in_hardware = where.startswith("src/repro/hardware/")
    offenders = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, FUNCTIONS) and node.name == "iter_read_codes" \
                and "readers" in _parameters(node):
            offenders.append(f"{where}:{node.lineno} iter_read_codes(readers=")
        if not in_hardware:
            continue
        if isinstance(node, ast.alias) \
                and node.name.rpartition(".")[2] == "BitReader":
            offenders.append(f"{where}:{node.lineno} imports BitReader")
        elif isinstance(node, ast.Call) \
                and any(keyword.arg == "codec" for keyword in node.keywords):
            offenders.append(f"{where}:{node.lineno} passes codec=")
        elif isinstance(node, FUNCTIONS) and node.name == "verify":
            offenders.append(f"{where}:{node.lineno} defines verify")
    return offenders


def blocks_serialized_once(source, where):
    """An archive is its bytes: a block is rendered whole (the
    argument-less ``SAGeBlock.serialize()``; a table's
    ``serialize(writer)`` is a field writer) only where
    ``SAGeArchive.from_blocks`` writes it, and every later payload is a
    slice of those bytes."""
    if not where.startswith("src/repro/"):
        return []
    tree = ast.parse(source)
    writer = {id(node)
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              and cls.name == "SAGeArchive"
              and where == "src/repro/core/container.py"
              for func in cls.body if isinstance(func, FUNCTIONS)
              and func.name == "from_blocks"
              for node in ast.walk(func)}
    return [f"{where}:{node.lineno} serialize() outside "
            f"SAGeArchive.from_blocks"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "serialize"
            and not node.args and not node.keywords
            and id(node) not in writer]


#: Functions that may render a whole read set with ``fastq.write_file``:
#: none of them writes an archive's reads.
SANCTIONED_FASTQ_FILE_WRITERS = {
    "src/repro/cli.py::_cmd_simulate":
        "renders simulated input, not archive output",
}


def fastq_rendered_once(source, where,
                        sanctioned=SANCTIONED_FASTQ_FILE_WRITERS):
    """FASTQ leaves the engine one way: under ``src/`` only the
    executor's per-block decode (``pipeline/executor.py::decode_block``)
    calls ``fastq.render(`` or ``fastq.write(``, nothing imports
    ``render``, ``write`` or ``write_file`` from the FASTQ module (a
    bare name would escape the first rule), and ``fastq.write_file(``
    is called only in ``sanctioned`` functions.  ``to_fastq`` (and so
    ``sage decompress`` and ``sage salvage``), pooled workers, ``sage
    cat --block`` and a ``sage serve`` miss all reach the renderer
    through that one decode; ``genomics/fastq.py`` is the renderer
    itself."""
    if not where.startswith("src/repro/") \
            or where == "src/repro/genomics/fastq.py":
        return []
    tree = ast.parse(source)
    renderer = {id(node) for func in ast.walk(tree)
                if isinstance(func, FUNCTIONS) and func.name == "decode_block"
                and where == "src/repro/pipeline/executor.py"
                for node in ast.walk(func)}
    offenders = [f"{where}:{node.lineno} fastq.{node.func.attr}( outside "
                 f"executor.decode_block"
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "attr", None) in ("render", "write")
                 and getattr(node.func.value, "id", None) == "fastq"
                 and id(node) not in renderer]
    offenders += [f"{where}:{node.lineno} imports fastq.{name}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.module or "").endswith("fastq")
                  for name in sorted({"render", "write", "write_file"}
                                     .intersection(alias.name
                                                   for alias in node.names))]

    def walk(node, site):
        for child in ast.iter_child_nodes(node):
            inner = site
            if isinstance(child, FUNCTIONS + (ast.ClassDef,)):
                inner = f"{site}.{child.name}" if site \
                    else f"{where}::{child.name}"
            elif isinstance(child, ast.Call) \
                    and getattr(child.func, "attr", None) == "write_file" \
                    and getattr(child.func.value, "id", None) == "fastq" \
                    and (site or where) not in sanctioned:
                offenders.append(f"{site or where} calls fastq.write_file "
                                 f"(line {child.lineno})")
            walk(child, inner)

    walk(tree, "")
    return offenders


def serve_keeps_no_read_index(source, where):
    """``sage serve`` finds a read range's blocks by bisecting the
    archive's own block index by ``first_read``: nothing under
    ``serve/`` collects a per-block ``first_read`` table (in a
    comprehension, a ``map`` or an ``append``/``extend``)."""
    if not where.startswith("src/repro/serve/"):
        return []
    offenders = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            collected = [node.elt]
        elif isinstance(node, ast.DictComp):
            collected = [node.key, node.value]
        elif isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) \
                in ("map", "append", "extend"):
            collected = node.args
        else:
            continue
        if any(getattr(leaf, "attr", None) == "first_read"
               or isinstance(leaf, ast.Constant) and leaf.value == "first_read"
               for part in collected for leaf in ast.walk(part)):
            offenders.append(f"{where}:{node.lineno} collects a per-block "
                             f"first_read table")
    return offenders


# ----------------------------------------------------------------------
# Nothing in src/ only the tests call: every public function,
# class or method defined under src/ is named somewhere in the code that
# uses the package — src/ itself (the CLI included), bench/,
# benchmarks/ or examples/ — other than at its own definition.  An
# oracle a fast path is held to lives under tests/ (``conftest.py``);
# a helper only tests called is deleted with them.  Unlike the
# per-file contracts this one reads a whole tree.
# ----------------------------------------------------------------------

#: Where code that uses the package lives.
CALLER_ROOTS = ("src", "bench", "benchmarks", "examples")

#: site -> why a definition only tests name stays in ``src/``.
SANCTIONED_TEST_ONLY = {
    "src/repro/api/dataset.py::SAGeDataset.closed":
        "the session's public lifecycle flag, read by a caller after "
        "close() the way a file object's closed is; nothing inside the "
        "package needs to ask",
    "src/repro/genomics/fastq.py::parse":
        "the block parser's text entry, read_file's twin for FASTQ a "
        "caller already holds as a string; the package itself reads "
        "files",
}

_IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")


def _names_used(tree):
    """Every identifier a module names outside a definition: loaded or
    stored names, attributes, imported names, and identifier-like
    strings (``__all__`` entries, ``getattr`` hooks)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _IDENTIFIER.match(node.value):
            yield node.value


def _public_definitions(tree, where):
    """``(site, node)`` for each public module-level function or class
    and each public method, classes nested at any depth."""
    def walk(body, owner):
        for item in body:
            if isinstance(item, FUNCTIONS + (ast.ClassDef,)) \
                    and not item.name.startswith("_"):
                yield f"{where}::{owner}{item.name}", item
            if isinstance(item, ast.ClassDef):
                yield from walk(item.body, f"{owner}{item.name}.")
    return walk(tree.body, "")


def definitions_have_a_caller(root=ROOT, sanctioned=SANCTIONED_TEST_ONLY):
    """Public definitions under ``root/src`` that nothing in
    :data:`CALLER_ROOTS` names, and allow-list entries that are not
    such a definition (the list is exact)."""
    trees = {path.relative_to(root).as_posix(): ast.parse(path.read_text())
             for caller in CALLER_ROOTS
             for path in sorted((root / caller).rglob("*.py"))}
    # A package ``__init__.py`` re-export (import or ``__all__``
    # string) is no caller.
    named = {name for where, tree in trees.items()
             if Path(where).name != "__init__.py"
             for name in _names_used(tree)}
    uncalled = {site: node.lineno
                for where, tree in trees.items() if where.startswith("src/")
                for site, node in _public_definitions(tree, where)
                if node.name not in named}
    return [f"{site} (line {line}) has no caller outside tests/"
            for site, line in uncalled.items() if site not in sanctioned] \
        + [f"{site} is sanctioned but has a caller or is gone"
           for site in sanctioned if site not in uncalled]


# ----------------------------------------------------------------------
# Extension stated once (PR 24): how anchors become segments — how they
# cluster and chain, which alignments a chain leaves open (plan, a block
# at a time) and how their results become ops, clips and a placement
# (assemble) — lives in mapping/mapper.py alone, and so does the one
# routine that takes anchored reads through all of it
# (``ReadMapper._extend``).  A mapper kernel is a ``ReadMapper`` subclass
# that overrides the job *solver*; it restates none of that logic, and
# the scalar aligners (the oracle a solver is held to) are reached
# through ``_solve_jobs`` in mapper.py only, so no second extension path
# can grow beside it.  The rules a kernel's proof rests on — the soft
# clip, the unmapped read, the flanks' consensus windows — are
# ``ReadMapper`` methods taking scalars or arrays, and the configuration
# fields each decides on are read there and nowhere else under
# ``src/repro/``, so a stage that restates a rule inline shows.
# ----------------------------------------------------------------------

_ALIGNERS = {"global_align", "prefix_free_align", "suffix_free_align"}
#: Each rule method of ``ReadMapper`` and the configuration fields that
#: only it reads.
_RULES = {"_soft_clipped": {"clip_min_length", "clip_max_length",
                            "clip_cost_fraction"},
          "_unmapped": {"unmapped_cost_fraction"},
          "_flank_windows": {"end_slack"}}
_RULE_OF = {name: rule for rule, names in _RULES.items() for name in names}
_SEGMENT_LOGIC = re.compile(
    r"^_(extend|map_oriented|build_segment|plan|assemble|cluster|chain)"
    r"|^(" + "|".join(_RULES) + r")$")


def rule_field_reads(tree):
    """``(node, field, function)`` for every read of a rule's
    configuration field (an attribute load, or the name as a string):
    ``function`` is the innermost function around it, or ``None``."""
    owner = {id(node): func for func in ast.walk(tree)
             if isinstance(func, FUNCTIONS) for node in ast.walk(func)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and isinstance(node.ctx, ast.Load):
            name = node.attr
        elif isinstance(node, ast.Constant):
            name = node.value
        else:
            continue
        if isinstance(name, str) and name in _RULE_OF:
            yield node, name, owner.get(id(node))


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
    rule_methods = {
        id(item): item.name for cls in ast.walk(tree) if in_mapper
        and isinstance(cls, ast.ClassDef) and cls.name == "ReadMapper"
        for item in cls.body if isinstance(item, FUNCTIONS)}
    offenders += [
        f"{where}:{node.lineno} reads {name} outside "
        f"ReadMapper.{_RULE_OF[name]}"
        for node, name, func in rule_field_reads(tree)
        if rule_methods.get(id(func)) != _RULE_OF[name]]
    return offenders


#: The two walks back through the DP, both in ``mapping/alignment.py``:
#: one job's (the scalar aligners' and the wide jobs'), and a chunk of
#: one-word lanes' (the batch mapper's).
_WALKS = ("trace_ops", "trace_lanes")


def traced_once(source, where):
    """``alignment.trace_ops`` and ``alignment.trace_lanes`` are the two
    tracebacks under ``src/``: no other function is named for one, and
    an insertion or deletion op only comes out of a walk back through
    the DP — outside those two, the ``INS`` / ``DEL`` kind numbers are
    only compared with (an operand of a comparison, or an item of a
    tuple, list or set that is one), never written into a kind column."""
    if not where.startswith("src/repro/"):
        return []
    tree = ast.parse(source)
    in_trace_ops = {
        id(node) for func in ast.walk(tree)
        if isinstance(func, FUNCTIONS) and func.name in _WALKS
        and where == "src/repro/mapping/alignment.py"
        for node in ast.walk(func)}
    offenders = [
        f"{where}:{func.lineno} {func.name} is a second traceback"
        for func in ast.walk(tree) if isinstance(func, FUNCTIONS)
        and "trace" in func.name.lower() and id(func) not in in_trace_ops]
    compared = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for operand in (node.left, *node.comparators):
                compared.add(id(operand))
                if isinstance(operand, (ast.Tuple, ast.List, ast.Set)):
                    compared.update(map(id, operand.elts))
    offenders += [
        f"{where}:{node.lineno} writes the {name} kind outside "
        f"alignment's two walks"
        for node in ast.walk(tree) if isinstance(node, (ast.Name,
                                                         ast.Attribute))
        and isinstance(node.ctx, ast.Load)
        for name in [getattr(node, "id", getattr(node, "attr", None))]
        if name in ("INS", "DEL") and id(node) not in compared
        and id(node) not in in_trace_ops]
    return offenders


#: The two functions that step DP rows, both in ``mapping/alignment.py``:
#: one job's Python-int rows, and a chunk of ``uint64`` lanes'.
_ROW_STEPPERS = ("dp_rows", "step_lanes")


def recurrence_stated_once(source, where):
    """The alignment DP has one recurrence under ``src/``: ``row_step``
    is called only from ``alignment.py``'s ``dp_rows`` and
    ``step_lanes``, and nothing under ``src/repro/mapping/`` runs a
    prefix-minimum DP (``np.minimum.accumulate``)."""
    if not where.startswith("src/repro/"):
        return []
    tree = ast.parse(source)
    stepping = {
        id(node) for func in ast.walk(tree)
        if isinstance(func, FUNCTIONS) and func.name in _ROW_STEPPERS
        and where == "src/repro/mapping/alignment.py"
        for node in ast.walk(func)}
    offenders = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", getattr(func, "attr", None))
        if name == "row_step" and id(node) not in stepping:
            offenders.append(f"{where}:{node.lineno} steps DP rows outside "
                             f"alignment's dp_rows and step_lanes")
        if name == "accumulate" and where.startswith("src/repro/mapping/") \
                and getattr(func.value, "attr", None) == "minimum":
            offenders.append(f"{where}:{node.lineno} runs a prefix-minimum "
                             f"DP")
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

            def archive_path(directory, name):
                return os.path.join(directory, name + ".sage")
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

    def test_env_read_inside_a_resolver(self):
        # No function name excuses an environment read: a kernel is
        # named where a decoder or a config is built.
        assert on_snippet(kernel_determinism, """\
            import os

            def resolve_codec(spec):
                return os.environ.get("SAGE_CODEC", spec)
            """, KERNEL) != []
        assert on_snippet(kernel_determinism, """\
            from os import getenv

            def resolve_mapper(spec):
                return getenv("SAGE_MAPPER") or spec
            """, "src/repro/mapping/batch.py") != []

    def test_non_kernel_module_may_import_time(self):
        assert on_snippet(kernel_determinism, "import time\n",
                          "src/repro/pipeline/bench.py") == []
        # ... but no module under src/ reads the environment.
        assert on_snippet(kernel_determinism,
                          "import os\nWORKERS = os.environ['WORKERS']\n",
                          "src/repro/cli.py") != []

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

        # The two objects share no field: the mapper kernel is
        # ``SAGeConfig.mapper_kernel`` alone, and ``codec`` is a decode
        # kernel (the encoder has none).
        assert {f.name for f in fields(EngineOptions)} \
            & {f.name for f in fields(SAGeConfig)} == set()
        assert {f.name for f in fields(EngineOptions)} == SESSION_FIELDS

        facade = (SRC / "repro/api/dataset.py").read_text()
        assert facade.count(".compress(") == 1
        assert "BlockCompressor" not in facade
        assert mentions("blocked", "compress_blocked") == []

        assert on_tree(options_a_caller_sets, "src") == []
        for violating, where in (
                ("""\
                 class EngineOptions:
                     workers: int = 1
                     backend: str = "auto"
                     block_reads: int = 0
                     codec: str = "numpy"
                     on_error: str = "raise"
                     streams: tuple | None = None
                 """, "src/repro/core/options.py"),
                ("""\
                 class EngineOptions:
                     workers: int = 1
                     backend: str = "auto"
                     block_reads: int = 0
                     codec: str = "numpy"
                     mapper: str = "numpy"
                     on_error: str = "raise"
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
                 "src/repro/mapping/samlike.py"),
                ("""\
                 class SAGeDataset:
                     def salvage(self):
                         return SalvageReport(self.read_set())
                 """, "src/repro/api/dataset.py"),
                ("class SalvageReport:\n    pass\n",
                 "src/repro/api/dataset.py")):
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
        version written (v3 and v4 stay readable)."""
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
        decode, transport and serve layers never construct a
        ``Read``, ``format_read`` is nobody's inner loop, and
        ``fastq.render`` is the one function that turns base codes into
        FASTQ bytes (``fastq.write`` decodes what it returns).  The
        way in obeys the same contract: the FASTQ parser fills the
        columns a block at a time and has no
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
        assert renderers == ["render"]

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
        # The baselines read columns too: no Read view, iterated or
        # indexed, and no per-read map_read.
        for violating, where in (
                ("for idx, read in enumerate(read_set):\n"
                 "    mapping = self.mapper.map_read(read.codes)\n",
                 "src/repro/baselines/spring.py"),
                ("fixed_length = len(read_set[0])\n",
                 "src/repro/baselines/spring.py"),
                ("scores = [read_set[i].quality for i in permutation]\n",
                 "src/repro/baselines/spring.py"),
                ("text = '\\n'.join(r.text for r in read_set)\n",
                 "src/repro/baselines/pigz.py")):
            assert on_snippet(blocks_consumed_as_columns, violating,
                              where) != [], violating
        assert on_snippet(blocks_consumed_as_columns, """\
            for index, block in enumerate(blocks):
                for mapping in mapper.map_batch(block.codes, block.offsets):
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
        unmapped reads become stream fields as columns, and every stream
        leaves through the one emitter, ``_Fields.emit``
        (``streams_written_in_bulk``); the writer and the table expose
        no other way to write a field, and the per-value references the
        columns are tested against live in ``tests/conftest.py``."""
        assert on_tree(streams_written_in_bulk, "src") == []
        compressor = "src/repro/core/compressor.py"
        for violating in ("mbta.write_bit(plan.reverse)\n",
                          "side.write(len(extra), 2)\n",
                          "tables['count'].encode(count, mmpga, mmpga)\n",
                          "guide.write_unary(idx)\n",
                          "writers['mpa'].write_run(first_cons, w_cons)\n",
                          "table.encode_run(values, guide, array)\n",
                          "writers['lengths'].write_fields(values, widths)\n",
                          "events: list[_Event] = []\n",
                          "class _ReadPlan:\n    pass\n"):
            assert on_snippet(streams_written_in_bulk, violating,
                              compressor) != [], violating
        assert on_snippet(streams_written_in_bulk, """\
            class _Fields:
                def emit(self, breakdown):
                    writer.write_fields(values, widths)
            """, compressor) == []
        for violating, where in (
                ("class BitWriter:\n"
                 "    def write_unary(self, value):\n        pass\n",
                 "src/repro/core/bitio.py"),
                ("class AssociationTable:\n"
                 "    def encode(self, value, guide, array):\n        pass\n",
                 "src/repro/core/prefix_codes.py")):
            assert on_snippet(streams_written_in_bulk, violating,
                              where) != [], violating
        assert on_snippet(streams_written_in_bulk, "writer.write(1, 1)\n",
                          "src/repro/core/container.py") == []

    def test_reads_constructed_once(self):
        """The decoder's side of the same contract: the numpy kernel
        describes every mapped read that is not plain as copy runs and
        patches and rebuilds them all, plain reads included, in one
        construction, with no per-read fallback beside it
        (``reads_constructed_once``).  The reference walk in
        ``core/decompressor.py`` keeps its per-read RCU loop: it is the
        oracle."""
        assert on_tree(reads_constructed_once, "src") == []
        kernels = "src/repro/core/kernels.py"
        for violating in (
                "oriented = seq.reverse_complement(oriented)\n",
                """\
                for i, clip_s, out, clip_e in reads:
                    flat[offs[i]:offs[i + 1]] = np.concatenate(
                        [clip_s, out, clip_e])
                """,
                """\
                while remaining:
                    out = np.empty(core_len, dtype=np.uint8)
                """,
                "del sub_row[-n_subs:]\n",
                "complex_recs.append((i, events))\n",
                """\
                def _decode_reads_batched(dec, index):
                    if wide:
                        return _flatten(list(dec.iter_read_codes(index=index)))
                """):
            assert on_snippet(reads_constructed_once, violating,
                              kernels) != [], violating
        assert on_snippet(reads_constructed_once, """\
            class PythonKernel:
                def decode_reads(self, decompressor, select=None, index=0):
                    return _flatten(list(decompressor.iter_read_codes(
                        index=index)))
            """, kernels) == []
        assert on_snippet(reads_constructed_once, """\
            for k in range(8):
                window = (window << np.uint64(8)) | ext[k:k + size]
            flat[run_index(at, lens)] = np.concatenate(parts)
            """, kernels) == []
        assert on_snippet(reads_constructed_once,
                          "codes = seq.reverse_complement(oriented)\n",
                          "src/repro/core/decompressor.py") == []

    def test_mappings_consumed_as_columns(self):
        """The mapper's side of the same contract: a block goes in as
        its columns and comes out as one ``MappedBlock`` table, written
        as columns from the traceback on, which the emitter reads
        without building or flattening result objects
        (``mappings_consumed_as_columns``)."""
        assert on_tree(mappings_consumed_as_columns, "src") == []
        compressor = "src/repro/core/compressor.py"
        for violating, where in (
                ("rev = _column(mapped, attrgetter('reverse'), bool)\n",
                 compressor),
                ("segments = [m.segments for m in mappings]\n", compressor),
                ("ops = list(chain.from_iterable(s.ops for s in segs))\n",
                 compressor),
                ("def emit(mappings: list[MappingResult]):\n    pass\n",
                 compressor),
                ("mapped = mapper.map_batch(read_set.read_codes())\n",
                 compressor),
                ("mapped = mapper.map_batch(list(block))\n",
                 "src/repro/analysis/properties.py"),
                ("hits = mapper.map_batch(block.read_codes())\n",
                 "src/repro/hardware/widget.py"),
                ("""\
                 def _flat_kmers(flat, k):
                     vals = np.zeros(flat.size - k + 1, dtype=np.uint64)
                     for off in range(k):
                         vals = (vals << np.uint64(2)) | flat[off:]
                     return vals
                 """, "src/repro/mapping/batch.py")):
            assert on_snippet(mappings_consumed_as_columns, violating,
                              where) != [], violating
        # The table is the one form outside mapping/ (PR 28 held the
        # compressor to it; the analysis consumers are held too).
        for violating, where in (
                ("for mapping in mapper.map_batch(block.codes, "
                 "block.offsets):\n    first = mapping.segments[0]\n",
                 "src/repro/analysis/properties.py"),
                ("for op in segment.ops:\n    pass\n",
                 "src/repro/analysis/variants.py"),
                ("mappings: list[MappingResult | None] = []\n",
                 "src/repro/analysis/variants.py"),
                ("from ..mapping import MappingResult\n",
                 "src/repro/pipeline/accelerators.py"),
                ("""\
                 class MappedBlock:
                     def __iter__(self):
                         return iter(self.results)
                 """, "src/repro/mapping/mapper.py"),
                ("""\
                 class MappedBlock:
                     def __getitem__(self, index):
                         return self.results[index]
                 """, "src/repro/mapping/mapper.py"),
                ("class MappedBlock(Sequence[MappingResult]):\n    pass\n",
                 "src/repro/mapping/mapper.py"),
                # Spring reads the table like everyone else outside
                # mapping/, from one map_batch over the set's columns.
                ("start = mapping.segments[0].cons_start\n",
                 "src/repro/baselines/spring.py"),
                ("for op in segment.ops:\n    pass\n",
                 "src/repro/baselines/spring.py"),
                ("mapped = self.mapper.map_batch(read_set.read_codes())\n",
                 "src/repro/baselines/spring.py"),
                ("mapped = self.mapper.map_batch(codes)\n",
                 "src/repro/baselines/spring.py"),
                # No per-read form inside mapping/ either: no record
                # types, no per-read entry point, no op objects.
                ("def map_read(self, codes) -> MappingResult:\n"
                 "    return MappingResult(segments=[])\n",
                 "src/repro/mapping/mapper.py"),
                ("""\
                 class MappedSegment:
                     cons_start: int
                 """, "src/repro/mapping/mapper.py"),
                ("from .alignment import EditOp\n",
                 "src/repro/mapping/batch.py"),
                ("ops = [alignment.EditOp(SUB, p) for p in hit_pos]\n",
                 "src/repro/mapping/mapper.py"),
                ("results = [self.map_read(c) for c in reads]\n",
                 "src/repro/mapping/mapper.py"),
                ("for op in segment.ops:\n    op.read_pos += shift\n",
                 "src/repro/mapping/mapper.py"),
                ("n = len(result.segments)\n",
                 "src/repro/mapping/batch.py")):
            assert on_snippet(mappings_consumed_as_columns, violating,
                              where) != [], violating
        for allowed, where in (
                ("mapped = mapper.map_batch(block.codes, block.offsets)\n",
                 compressor),
                ("mapped = self.mapper.map_batch(read_set.codes, "
                 "read_set.offsets)\n", "src/repro/baselines/spring.py"),
                ("read_pos += [p + shift for p in res.read_pos]\n",
                 "src/repro/mapping/mapper.py"),
                ("class MappedBlock:\n    def __len__(self):\n"
                 "        return 0\n", "src/repro/mapping/mapper.py")):
            assert on_snippet(mappings_consumed_as_columns, allowed,
                              where) == [], allowed
        assert on_snippet(mappings_consumed_as_columns,
                          "table = self.map_batch(reads.read_codes())\n",
                          "src/repro/mapping/widget.py") == []

    def test_extension_is_stated_once(self):
        """A mapper kernel overrides the job solver and nothing else of
        the anchors -> segments logic (clustering, chaining, the block
        planner, assembly, the extension routine, the rules); the scalar
        aligners are called from ``ReadMapper._solve_jobs`` only, and
        each rule's configuration fields are read in exactly one
        function under ``src/repro/``, its ``ReadMapper`` method
        (``extension_stated_once``)."""
        assert on_tree(extension_stated_once, "src") == []
        readers = {}
        for _, name, func in rule_field_reads(ast.parse(
                (SRC / "repro/mapping/mapper.py").read_text())):
            readers.setdefault(name, set()).add(func.name)
        assert readers == {name: {rule} for name, rule in _RULE_OF.items()}
        for violating, where in (
                # One stage restating each rule inline.
                ("""\
                 class BatchReadMapper(ReadMapper):
                     def _verify_and_emit(self, n, cost):
                         cfg = self.config
                         return ((cfg.clip_min_length <= n)
                                 & (n <= cfg.clip_max_length)
                                 & (cost > cfg.clip_cost_fraction * n))
                 """, "src/repro/mapping/batch.py"),
                ("""\
                 def _drain_anchored(self, res, length):
                     mapped_len = max(1, length - res.clip_start.size)
                     return res.cost <= (self.config.unmapped_cost_fraction
                                         * mapped_len)
                 """, "src/repro/mapping/batch.py"),
                ("""\
                 class BatchReadMapper(ReadMapper):
                     def _verify_and_emit(self, v_diag):
                         return np.maximum(0, v_diag - self.config.end_slack)
                 """, "src/repro/mapping/batch.py"),
                ("""\
                 class ReadMapper:
                     def _plan_segments(self, a0c, head):
                         slack = getattr(self.config, "end_slack")
                         return max(0, a0c - head.size - slack)
                 """, "src/repro/mapping/mapper.py"),
                ("""\
                 class ReadMapper:
                     def _assemble_segment(self, head, cost):
                         return cost > self.config.clip_cost_fraction \\
                             * head.size
                 """, "src/repro/mapping/mapper.py"),
                # A kernel overriding a rule or the extension routine.
                ("""\
                 class BatchReadMapper(ReadMapper):
                     def _soft_clipped(self, n, cost):
                         return n < 0
                 """, "src/repro/mapping/batch.py"),
                ("""\
                 class BatchReadMapper(ReadMapper):
                     def _extend(self, *rows):
                         return []
                 """, "src/repro/mapping/batch.py"),
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
                ("""\
                 class BatchReadMapper(ReadMapper):
                     def _plan_block(self, *args):
                         return []
                 """, "src/repro/mapping/batch.py"),
                ("""\
                 class BatchReadMapper(ReadMapper):
                     def _cluster_block(self, a_row, a_rpos, a_cons):
                         return ()
                 """, "src/repro/mapping/batch.py"),
                ("""\
                 class BatchReadMapper(ReadMapper):
                     def _chain_clusters(self, *args):
                         return [], [], None, None
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
        # A rule method reading its fields, and a config that sets one.
        assert on_snippet(extension_stated_once, """\
            class ReadMapper:
                def _unmapped(self, cost, length, clip_s, clip_e):
                    return cost > self.config.unmapped_cost_fraction \\
                        * np.maximum(1, length - clip_s - clip_e)
            """, "src/repro/mapping/mapper.py") == []
        assert on_snippet(extension_stated_once, """\
            def _build_mapper(cfg):
                cfg.unmapped_cost_fraction = 0.80
                return MapperConfig(end_slack=0)
            """, "src/repro/core/compressor.py") == []
        # A _plan_read on a class that is no ReadMapper is not segment
        # logic.
        assert on_snippet(extension_stated_once, """\
            class SAGeCompressor:
                def _plan_read(self, read, mapping):
                    return None
            """, "src/repro/core/compressor.py") == []


    def test_traced_once(self):
        """``alignment.trace_ops`` and ``alignment.trace_lanes`` are the
        only tracebacks in ``src/`` (``traced_once``)."""
        assert on_tree(traced_once, "src") == []
        for violating, where in (
                # A third walk, beside the lanes' one.
                ("""\
                 def trace_wide_lanes(words, n, m, free_start):
                     kind = np.where(up, INS, np.where(left, DEL, SUB))
                     return kind, n, m
                 """, "src/repro/mapping/batch.py"),
                ("""\
                 def trace_lanes(reads, cons, n, m, free_start, free_end):
                     return np.full(n.size, DEL, dtype=np.int8)
                 """, "src/repro/mapping/batch.py"),
                ("""\
                 def trace_blocks(rows, n, m):
                     return rows
                 """, "src/repro/mapping/alignment.py"),
                # A second walk: named for one, or emitting indels.
                ("""\
                 def _trace_bucket(cube, width, jobs):
                     return [walk(cube, job) for job in jobs]
                 """, "src/repro/mapping/batch.py"),
                ("""\
                 def _solve_lanes(jobs, rows):
                     return [INS] * len(rows), rows, [1] * len(rows)
                 """, "src/repro/mapping/batch.py"),
                ("kind[at] = alignment.DEL\n", "src/repro/mapping/mapper.py"),
                ("kinds.append(INS)\n", "src/repro/mapping/mapper.py"),
                ("kind = np.full(n, DEL, dtype=np.int8)\n",
                 "src/repro/mapping/batch.py"),
                ("codes = {SUB: 0, INS: 1, DEL: 2}\n",
                 "src/repro/core/compressor.py"),
                ("""\
                 def trace_ops(read, cons, dist, width):
                     return []
                 """, "src/repro/mapping/batch.py")):
            assert on_snippet(traced_once, violating, where) != [], violating
        # Substitutions are written anywhere; INS / DEL are compared
        # with, and written in trace_ops.
        assert on_snippet(traced_once, """\
            def _verify_and_emit(self, rows, hit_pos):
                return np.full(hit_pos.size, SUB, dtype=np.int8)
            """, "src/repro/mapping/batch.py") == []
        assert on_snippet(traced_once, """\
            def _steps(self):
                return np.where(self.kind == DEL, self.length, 0) \\
                    - np.where(alignment.INS == self.kind, self.length, 0)
            """, "src/repro/mapping/mapper.py") == []
        assert on_snippet(traced_once,
                          "indel = kind in (alignment.INS, alignment.DEL)\n",
                          "src/repro/analysis/properties.py") == []
        assert on_snippet(traced_once, "def trace_ops(read, cons):\n"
                          "    kinds.append(DEL)\n",
                          "src/repro/mapping/alignment.py") == []
        assert on_snippet(traced_once, """\
            def trace_lanes(reads, cons, n, m, free_start, free_end):
                kind[t] = np.where(j_end == 0, INS, DEL)[has]
                return kind
            """, "src/repro/mapping/alignment.py") == []

    def test_recurrence_stated_once(self):
        """``row_step`` is stepped only by ``alignment.dp_rows`` and
        ``alignment.step_lanes``, and no prefix-minimum DP is left
        under ``src/repro/mapping/`` (``recurrence_stated_once``)."""
        assert on_tree(recurrence_stated_once, "src") == []
        for violating, where in (
                # Stage 3's second recurrence, as it was.
                ("""\
                 def dp_last_rows(read_rows, read_lens, win_rows,
                                  free_start):
                     for i in range(1, n_max + 1):
                         np.equal(read_rows[:, i - 1, None], win_rows,
                                  out=match)
                         np.subtract(prev[:, :-1], match, out=diag)
                         np.add(prev, 1, out=row)
                         np.minimum(row[:, 1:], diag, out=row[:, 1:])
                         np.minimum.accumulate(row, axis=1, out=row)
                         prev, row = row, prev
                     return last
                 """, "src/repro/mapping/alignment.py"),
                ("row = numpy.minimum.accumulate(row)\n",
                 "src/repro/mapping/batch.py"),
                # Rows stepped by a third function, or outside alignment.
                ("""\
                 def _flank_rows(p, q, eqs):
                     return [row_step(p, q, eq) for eq in eqs]
                 """, "src/repro/mapping/alignment.py"),
                ("""\
                 def step_lanes(p, q, eq):
                     return alignment.row_step(p, q, eq)
                 """, "src/repro/mapping/batch.py"),
                ("p, q = row_step(p, q, eq)\n", "src/repro/core/widget.py")):
            assert on_snippet(recurrence_stated_once, violating,
                              where) != [], violating
        assert on_snippet(recurrence_stated_once, """\
            def step_lanes(reads, cons, n, m, free_start, free_end):
                p, q = row_step(p[:a], q[:a], eq[at])
                return p, q
            """, "src/repro/mapping/alignment.py") == []
        # Outside the mapper a prefix minimum is no alignment DP.
        assert on_snippet(recurrence_stated_once,
                          "first = np.minimum.accumulate(nz[::-1])\n",
                          "src/repro/core/kernels.py") == []

    def test_hardware_decodes_once(self):
        """The hardware model decodes each block once, on the session's
        kernel, and its equivalence check, the FTL's GC, the device's
        batch iterator and the thread-scaling rate stay deleted
        (``hardware_decodes_once``, ``deleted_stay_deleted``)."""
        assert on_tree(hardware_decodes_once, "src") == []
        for violating, where in (
                ("from ..core.bitio import BitReader\n",
                 "src/repro/hardware/sage_units.py"),
                ("decoder = SAGeDecompressor(archive, codec='python')\n",
                 "src/repro/hardware/sage_units.py"),
                ("""\
                 class SAGeHardwareModel:
                     def verify(self, archive):
                         return True
                 """, "src/repro/hardware/sage_units.py"),
                ("""\
                 class SAGeDecompressor:
                     def iter_read_codes(self, readers=None, index=0):
                         return iter(())
                 """, "src/repro/core/decompressor.py")):
            assert on_snippet(hardware_decodes_once, violating,
                              where) != [], violating
        # The kernel layer may name a kernel; the facade may verify.
        assert on_snippet(hardware_decodes_once,
                          "decoder = SAGeDecompressor(archive, "
                          "codec='python')\n",
                          "src/repro/core/kernels.py") == []
        assert on_snippet(hardware_decodes_once, """\
            class SAGeDataset:
                def verify(self, *, deep=False):
                    return None
            """, "src/repro/api/dataset.py") == []
        for name in ("gc_genomic_unit", "iter_batches", "software_rate_at"):
            assert on_snippet(deleted_stay_deleted,
                              f"def {name}(self, *args):\n    pass\n",
                              "src/repro/hardware/device.py") != [], name

    def test_blocks_serialized_once(self):
        """One backing: ``SAGeArchive.from_blocks`` writes each block
        once and the archive is that blob from then on, so no index
        builder, payload accessor or size helper re-serializes a block
        (``blocks_serialized_once``)."""
        assert on_tree(blocks_serialized_once, "src") == []
        container = "src/repro/core/container.py"
        for violating, where in (
                ("""\
                 class SAGeArchive:
                     def block_payload(self, index):
                         return self.blocks[index].serialize()
                 """, container),
                ("""\
                 class SAGeArchive:
                     def block_index(self):
                         return [len(blk.serialize()) for blk in self.blocks]
                 """, container),
                ("""\
                 class Writer:
                     def from_blocks(self, blocks):
                         return [blk.serialize() for blk in blocks]
                 """, container),
                ("""\
                 class SAGeArchive:
                     def from_blocks(self, blocks):
                         return [blk.serialize() for blk in blocks]
                 """, "src/repro/api/dataset.py")):
            assert on_snippet(blocks_serialized_once, violating,
                              where) != [], violating
        assert on_snippet(blocks_serialized_once, """\
            class SAGeArchive:
                @classmethod
                def from_blocks(cls, blocks):
                    return [(blk, blk.serialize()) for blk in blocks]

                def _write_meta(self, writer):
                    self.tables["mp"].serialize(writer)
            """, container) == []

    def test_serve_answers_through_the_engine(self):
        """``sage serve`` restates none of the library: FASTQ is
        rendered by the executor's per-block decode alone
        (``fastq_rendered_once``), the server bisects the archive's
        block index instead of keeping its own
        (``serve_keeps_no_read_index``), and its session wrapper and
        ``describe()`` projection stay deleted
        (``deleted_stay_deleted``)."""
        assert on_tree(fastq_rendered_once, "src") == []
        for violating, where in (
                ("""\
                 def _render_block(dataset, index, selection, fmt):
                     reads = dataset.decode_block(index, select=selection)
                     return fastq.write(reads, 0).encode("ascii")
                 """, "src/repro/serve/server.py"),
                ("out.write(fastq.write(dataset.decode_block(i), base))\n",
                 "src/repro/cli.py"),
                ("from ..genomics.fastq import write\n",
                 "src/repro/serve/server.py"),
                ("""\
                 def _decode_task(task):
                     return fastq.write(reads, base)
                 """, "src/repro/pipeline/executor.py"),
                ("""\
                 def _render_block(dataset, index, selection, fmt):
                     reads = dataset.decode_block(index, select=selection)
                     return fastq.render(reads, 0)
                 """, "src/repro/serve/server.py"),
                ("out.write(fastq.render(dataset.decode_block(i), base))\n",
                 "src/repro/cli.py"),
                ("from ..genomics.fastq import render\n",
                 "src/repro/serve/server.py"),
                ("from ..genomics.fastq import FastqError, render\n",
                 "src/repro/pipeline/executor.py"),
                ("""\
                 def _decode_task(task):
                     return fastq.render(reads, base)
                 """, "src/repro/pipeline/executor.py")):
            assert on_snippet(fastq_rendered_once, violating,
                              where) != [], violating
        for sanctioned in ("fastq.render(reads, base)",
                           "fastq.write(reads, base).encode('ascii')"):
            assert on_snippet(fastq_rendered_once, f"""\
                def decode_block(decoder, index, select, render, columns):
                    return {sanctioned} if render else None
                """, "src/repro/pipeline/executor.py") == [], sanctioned
        # Rendering a whole read set to a file is the same fork; the
        # allow-list is exact, so an entry cannot outlive its call.
        unsanctioned = on_tree(
            partial(fastq_rendered_once, sanctioned={}), "src")
        assert sorted(o.split(" calls ")[0] for o in unsanctioned) \
            == sorted(SANCTIONED_FASTQ_FILE_WRITERS)
        for violating, where in (
                ("""\
                 def _cmd_salvage(args):
                     fastq.write_file(report.read_set, args.output)
                 """, "src/repro/cli.py"),
                ("fastq.write_file(dataset.read_set(), path)\n",
                 "src/repro/api/dataset.py"),
                ("from ..genomics.fastq import write_file\n",
                 "src/repro/cli.py")):
            assert on_snippet(fastq_rendered_once, violating,
                              where) != [], violating
        assert on_snippet(fastq_rendered_once, """\
            def _cmd_simulate(args):
                fastq.write_file(sim.read_set, args.output)
            """, "src/repro/cli.py") == []

        assert on_tree(serve_keeps_no_read_index, "src") == []
        for violating in (
                "offsets = [e.first_read for e in archive.block_index()]\n",
                "offsets = list(map(attrgetter('first_read'), entries))\n",
                "for entry in index:\n    offsets.append(entry.first_read)\n",
                "starts = {i: e.first_read for i, e in enumerate(index)}\n"):
            assert on_snippet(serve_keeps_no_read_index, violating,
                              "src/repro/serve/server.py") != [], violating
        assert on_snippet(serve_keeps_no_read_index,
                          "first = bisect_right(entries, start, "
                          "key=_FIRST_READ) - 1\n"
                          "base = entries[first].first_read\n",
                          "src/repro/serve/server.py") == []
        assert on_snippet(serve_keeps_no_read_index,
                          "offsets = [e.first_read for e in index]\n",
                          "src/repro/api/describe.py") == []

        for violating in ("class _ServedArchive:\n    pass\n",
                          "def _inspect_sync(served):\n    return {}\n"):
            assert on_snippet(deleted_stay_deleted, violating,
                              "src/repro/serve/server.py") != [], violating

    def test_definitions_have_a_caller(self, tmp_path):
        """Code only tests call does not live in ``src/``: an oracle
        moves to ``tests/``, anything else goes
        (``definitions_have_a_caller``)."""
        assert definitions_have_a_caller() == []
        assert len(SANCTIONED_TEST_ONLY) <= 3
        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "model.py").write_text(textwrap.dedent("""\
            def helper():
                return _checked()


            def _checked():
                return 1


            class Model:
                def run(self):
                    return helper()

                def verify(self):
                    return True
            """))
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "demo.py").write_text(
            "from pkg.model import Model\nModel().run()\n")
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_model.py").write_text(
            "from pkg.model import Model\nassert Model().verify()\n")
        # A test is no caller; a private helper is not in scope.
        assert definitions_have_a_caller(tmp_path, {}) == [
            "src/pkg/model.py::Model.verify (line 13) has no caller "
            "outside tests/"]
        site = "src/pkg/model.py::Model.verify"
        assert definitions_have_a_caller(tmp_path, {site: "why"}) == []
        # The allow-list is exact: an entry that has a caller is stale.
        assert definitions_have_a_caller(
            tmp_path, {site: "why", "src/pkg/model.py::helper": "why"}) \
            == ["src/pkg/model.py::helper is sanctioned but has a caller "
                "or is gone"]
        # A package re-export (import or ``__all__`` string) is no
        # caller either.
        (package / "__init__.py").write_text(
            'from .model import Model, helper\n'
            '__all__ = ["Model", "helper", "run", "verify"]\n')
        (tmp_path / "examples" / "demo.py").write_text(
            "from pkg import Model\n")
        assert definitions_have_a_caller(tmp_path, {}) == [
            f"src/pkg/model.py::Model.{name} (line {line}) has no caller "
            f"outside tests/" for name, line in (("run", 10), ("verify", 13))]

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
