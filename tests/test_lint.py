"""Tests for ``sage lint`` — the SGL architectural-contract checker.

Each rule gets at least one violating and one clean fixture snippet,
linted through :func:`repro.lint.lint_source` under a virtual path that
puts it in the rule's scope.  The suite also covers suppression
comments, ``--select``/``--ignore``/``--json``, the CLI exit codes,
and a dogfood pass asserting the real tree is clean.
"""

import ast
import json
import textwrap
from importlib.util import resolve_name
from pathlib import Path

import pytest

from repro.lint import (
    PARSE_ERROR_CODE,
    LintUsageError,
    available_rules,
    lint_paths,
    lint_source,
    render_report,
)
from repro.lint.cli import main as lint_main


def findings_for(source, path, **kwargs):
    findings, _ = lint_source(textwrap.dedent(source), path=path,
                              **kwargs)
    return findings


def codes_for(source, path, **kwargs):
    return [f.code for f in findings_for(source, path, **kwargs)]


SRC = Path(__file__).resolve().parents[1] / "src"


def imported_names(path):
    """``(node, dotted name)`` for everything a file under ``src/``
    imports, relative imports resolved, module level or not."""
    package = ".".join(path.relative_to(SRC).parts[:-1])
    for node in ast.walk(ast.parse(path.read_text())):
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
    under the given ``src/repro`` sub-packages."""
    return [f"{path.relative_to(SRC)}:{node.lineno}"
            for layer in layers
            for path in sorted((SRC / "repro" / layer).rglob("*.py"))
            for node, name in imported_names(path)
            if f"{name}.".startswith(f"{package}.")]


# ----------------------------------------------------------------------
# Per-rule fixture pairs (parametrized over rule code)
# ----------------------------------------------------------------------

CORE = "src/repro/core/widget.py"
KERNEL = "src/repro/core/kernels.py"
PIPELINE = "src/repro/pipeline/widget.py"
SERVE = "src/repro/serve/handlers.py"

FIXTURES = {
    "SGL001": {
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
    "SGL005": {
        "violating": ("""\
            def run(executor, items):
                return [executor.submit(lambda x: x + 1, item)
                        for item in items]
            """, PIPELINE),
        "clean": ("""\
            def double(x):
                return x + 1

            def run(executor, items):
                return [executor.submit(double, item) for item in items]
            """, PIPELINE),
    },
    "SGL006": {
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
    "SGL007": {
        "violating": ("""\
            class Handlers:
                async def _handle_block(self, request):
                    return request.served.decode(0)
            """, SERVE),
        "clean": ("""\
            from repro.core.errors import SAGeError
            from repro.serve.http import sage_error_boundary

            class Handlers:
                @sage_error_boundary
                async def _handle_block(self, request):
                    return request.served.decode(0)

                async def _handle_stats(self, request):
                    try:
                        return request.served.stats()
                    except SAGeError as exc:
                        return {"error": str(exc)}
            """, SERVE),
    },
}


@pytest.mark.parametrize("code", sorted(FIXTURES))
class TestRuleFixtures:
    def test_violating_snippet_flagged(self, code):
        source, path = FIXTURES[code]["violating"]
        assert code in codes_for(source, path)

    def test_clean_snippet_passes(self, code):
        source, path = FIXTURES[code]["clean"]
        assert codes_for(source, path) == []

    def test_rule_is_registered(self, code):
        rules = available_rules()
        assert code in rules
        assert rules[code].contract

    def test_out_of_scope_path_ignored(self, code):
        # The same violating snippet under a path outside the rule's
        # scope produces no finding for that rule (SGL004/SGL005 apply
        # repo-wide, so exercise only the scoped rules).
        if code in ("SGL004", "SGL005"):
            pytest.skip("rule applies repo-wide")
        source, _ = FIXTURES[code]["violating"]
        assert code not in codes_for(source, "scripts/helper.py")


# ----------------------------------------------------------------------
# Rule-specific edges
# ----------------------------------------------------------------------

class TestErrorTaxonomyEdges:
    def test_swallowed_broad_except(self):
        assert "SGL001" in codes_for("""\
            def decode_block(payload):
                try:
                    return payload[0]
                except Exception:
                    pass
            """, CORE)

    def test_unguarded_int_on_parsed_text(self):
        assert "SGL001" in codes_for("""\
            def decode_names(payload):
                lines = payload.decode("utf-8").split("\\n")
                return int(lines[0])
            """, CORE)

    def test_guarded_int_is_clean(self):
        assert codes_for("""\
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
        assert codes_for("""\
            def decode_positions(arr):
                return [int(x) for x in arr]
            """, CORE) == []

    def test_non_decode_function_may_raise_valueerror(self):
        assert codes_for("""\
            def check_config(cfg):
                raise ValueError("caller mistake")
            """, CORE) == []

    def test_wire_class_constructor_in_scope(self):
        assert "SGL001" in codes_for("""\
            class Table:
                def __init__(self, widths):
                    if not widths:
                        raise ValueError("empty")

                @classmethod
                def deserialize(cls, payload):
                    return cls(list(payload))
            """, CORE)


class TestKernelDeterminismEdges:
    def test_env_read_outside_resolver(self):
        assert "SGL002" in codes_for("""\
            import os
            LEVEL = os.environ.get("SAGE_LEVEL", "O4")
            """, KERNEL)

    def test_non_kernel_module_may_import_time(self):
        assert "SGL002" not in codes_for(
            "import time\n", "src/repro/pipeline/bench.py")


class TestOptionsThreadingEdges:
    def test_options_module_is_exempt(self):
        assert codes_for("""\
            def resolve(*, workers=None, backend=None):
                return workers
            """, "src/repro/core/options.py") == []

    def test_finding_names_the_knobs(self):
        (finding,) = findings_for("""\
            def run(data, *, workers=None, prefetch=2):
                return data
            """, PIPELINE)
        assert "prefetch" in finding.message
        assert "workers" in finding.message

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

    def test_archive_shape_fork_stays_deleted(self):
        """One block shape, one block decode: the flat/blocked switch
        (``is_blocked``), the block-to-flat-archive adapter and the
        second fallback-naming rule (``header_base``) may not reappear
        under ``src/`` — as a definition, attribute, argument or
        keyword."""
        banned = {"is_blocked", "block_as_archive", "header_base"}
        src = Path(__file__).resolve().parents[1] / "src"
        offenders = []
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = {getattr(node, field, None)
                         for field in ("id", "attr", "arg", "name")}
                if names & banned:
                    offenders.append(
                        f"{path.relative_to(src)}:{node.lineno}")
        assert offenders == []

    def test_options_and_kernel_are_decided_once(self):
        """A session fixes its options and a decoder its kernel: under
        ``src/`` only the session constructors (and the executor
        factory they feed) take ``options``, only
        ``SAGeDecompressor.__init__`` takes ``codec``, and the front
        ends (``cli.py``, ``serve/``) do not mention a codec at all."""
        src = Path(__file__).resolve().parents[1] / "src"
        session_entry = {"__init__", "from_fastq", "open", "_make_executor"}
        offenders = []
        for path in sorted(src.rglob("*.py")):
            text = path.read_text()
            where = str(path.relative_to(src))
            front_end = where == "repro/cli.py" \
                or where.startswith("repro/serve/")
            if front_end and "codec" in text:
                offenders.append(f"{where}: mentions codec")
            for owner in ast.walk(ast.parse(text)):
                owner_name = getattr(owner, "name", "")
                for node in ast.iter_child_nodes(owner):
                    if not isinstance(node, (ast.FunctionDef,
                                             ast.AsyncFunctionDef)):
                        continue
                    args = node.args
                    params = {a.arg for a in (args.posonlyargs + args.args
                                              + args.kwonlyargs)}
                    if "codec" in params and (owner_name, node.name) != (
                            "SAGeDecompressor", "__init__"):
                        offenders.append(f"{where}:{node.lineno} codec=")
                    if "options" in params \
                            and owner_name in ("SAGeDataset", "Pipeline") \
                            and node.name not in session_entry:
                        offenders.append(f"{where}:{node.lineno} options=")
        assert offenders == []

    def test_format_and_session_are_stated_once(self):
        """``SAGeConfig`` says what the bytes are, ``EngineOptions`` how
        the session runs, ``block_reads`` alone partitions, and the
        facade has one write path."""
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
        assert len(fields(EngineOptions)) == 9

        src = Path(__file__).resolve().parents[1] / "src"
        facade = (src / "repro/api/dataset.py").read_text()
        assert facade.count(".compress(") == 1
        assert "SAGeCompressor" not in facade
        banned = {"blocked", "compress_blocked"}
        offenders = []
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                names = {getattr(node, field, None)
                         for field in ("id", "attr", "arg", "name")}
                if names & banned:
                    offenders.append(
                        f"{path.relative_to(src)}:{node.lineno}")
        assert offenders == []

    def test_one_stream_writer_and_no_thread_backend(self):
        """A codec kernel is a decode strategy: the compressor writes
        through ``BitWriter`` and does not import the kernel module, so
        ``core/kernels.py`` needs no function-level import to dodge a
        cycle; the second writer and the scheduler that lost to
        ``serial`` stay deleted."""
        from repro.core.options import BACKENDS

        core = SRC / "repro" / "core"
        assert [name for _node, name
                in imported_names(core / "compressor.py")
                if f"{name}.".startswith("repro.core.kernels.")] == []
        kernels = ast.parse((core / "kernels.py").read_text())
        assert [node.lineno for scope in ast.walk(kernels)
                if isinstance(scope, (ast.FunctionDef, ast.ClassDef))
                for node in ast.walk(scope)
                if isinstance(node, ast.ImportFrom) and node.level] == []
        assert [str(path.relative_to(SRC))
                for path in sorted(SRC.rglob("*.py"))
                if any(name in path.read_text()
                       for name in ("TokenWriter", "new_writer"))] == []
        assert "thread" not in BACKENDS

    def test_decoded_blocks_stay_columnar(self):
        """``ReadSet`` is the one read container and its columns its
        one storage: no ``ReadBatch``, no ``batch=`` way in, no second
        attribute standing for "list or columns".  A block decode
        builds it and every stage up to the sink consumes it: the
        decode, transport, cache and serve layers never construct a
        ``Read``, ``format_read`` is nobody's inner loop, and
        ``fastq.write`` is the one function that turns base codes into
        FASTQ text."""
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        trees = {path: ast.parse(path.read_text())
                 for path in sorted(src.rglob("*.py"))}

        def calls(tree, name):
            return [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and name in (getattr(node.func, "id", None),
                                 getattr(node.func, "attr", None))]

        offenders = [f"{path.relative_to(src)} mentions ReadBatch"
                     for path in trees if "ReadBatch" in path.read_text()]
        offenders += [f"{path.relative_to(src)}:{node.lineno} batch="
                      for path, tree in trees.items()
                      for node in ast.walk(tree)
                      if isinstance(node, (ast.keyword, ast.arg))
                      and node.arg == "batch"]
        columnar = [src / "core/decompressor.py", src / "core/kernels.py",
                    src / "pipeline/executor.py", src / "api/cache.py",
                    *sorted((src / "serve").glob("*.py"))]
        offenders += [f"{path.relative_to(src)}:{line} Read("
                      for path in columnar
                      for line in calls(trees[path], "Read")]
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


class TestSinkContractEdges:
    def test_protocol_class_is_exempt(self):
        assert codes_for("""\
            from typing import Protocol

            class Sink(Protocol):
                def consume(self, index, block): ...
                def finish(self): ...
            """, PIPELINE) == []

    def test_requires_none_is_an_explicit_declaration(self):
        assert codes_for("""\
            class FullDecodeSink:
                requires = None

                def consume(self, index, block):
                    pass

                def finish(self):
                    return None
            """, PIPELINE) == []

    def test_consume_gap_arity(self):
        codes = codes_for("""\
            class GapSink:
                requires = None

                def consume(self, index, block):
                    pass

                def consume_gap(self, gap, extra):
                    pass

                def finish(self):
                    return None
            """, PIPELINE)
        assert codes == ["SGL004"]


class TestPoolPickleSafetyEdges:
    def test_local_function_submitted(self):
        assert "SGL005" in codes_for("""\
            def run(executor, items):
                def helper(x):
                    return x + 1
                return [executor.submit(helper, i) for i in items]
            """, PIPELINE)

    def test_strategy_map_lambda_is_clean(self):
        # hypothesis strategies have .map(); only pool-like receivers
        # are in scope.
        assert codes_for("""\
            codes = lists(integers()).map(lambda xs: tuple(xs))
            """, "tests/test_widget.py") == []

    def test_pool_map_lambda_flagged(self):
        assert "SGL005" in codes_for("""\
            def run(pool, items):
                return pool.map(lambda x: x + 1, items)
            """, PIPELINE)

    def test_error_family_kwonly_init_needs_reduce(self):
        assert "SGL005" in codes_for("""\
            from repro.core.errors import SAGeError

            class WidgetError(SAGeError):
                def __init__(self, message, *, widget=None):
                    super().__init__(message)
                    self.widget = widget
            """, PIPELINE)

    def test_error_with_reduce_is_clean(self):
        assert codes_for("""\
            from repro.core.errors import SAGeError

            class WidgetError(SAGeError):
                def __init__(self, message, *, widget=None):
                    super().__init__(message)
                    self.widget = widget

                def __reduce__(self):
                    return (type(self), (self.args[0],),
                            {"widget": self.widget})
            """, PIPELINE) == []

    def test_context_mixin_subclass_inherits_reduce(self):
        assert codes_for("""\
            from repro.core.errors import CorruptArchiveError

            class WidgetError(CorruptArchiveError):
                def __init__(self, message, *, stream=None):
                    super().__init__(message, stream=stream)
            """, PIPELINE) == []


class TestMmapLifetimeEdges:
    def test_memoryview_on_self(self):
        assert "SGL005" not in codes_for("x = 1\n", PIPELINE)
        assert "SGL006" in codes_for("""\
            class Holder:
                def pin(self, buf):
                    self.view = memoryview(buf)
            """, PIPELINE)

    def test_local_view_is_clean(self):
        assert codes_for("""\
            def checksum(archive, index):
                view = archive.block_payload(index)
                return len(view)
            """, PIPELINE) == []

    def test_container_module_is_exempt(self):
        assert codes_for("""\
            class SAGeArchive:
                def _pin(self, buf):
                    self._view = memoryview(buf)
            """, "src/repro/core/container.py") == []


class TestServeErrorMappingEdges:
    def test_docstring_then_try_is_guarded(self):
        assert codes_for("""\
            from repro.core.errors import BlockDecodeError

            class Handlers:
                async def _handle_block(self, request):
                    \"\"\"Serve one block.\"\"\"
                    try:
                        return request.served.decode(0)
                    except BlockDecodeError as exc:
                        return {"error": str(exc)}
            """, SERVE) == []

    def test_partial_guard_still_flagged(self):
        # A try that does not cover the whole body (statements outside
        # it) leaves an unguarded escape path.
        assert "SGL007" in codes_for("""\
            from repro.core.errors import SAGeError

            class Handlers:
                async def _handle_block(self, request):
                    served = request.served.decode(0)
                    try:
                        return served
                    except SAGeError:
                        return None
            """, SERVE)

    def test_catching_unrelated_error_flagged(self):
        assert "SGL007" in codes_for("""\
            class Handlers:
                async def _handle_block(self, request):
                    try:
                        return request.served.decode(0)
                    except KeyError:
                        return None
            """, SERVE)

    def test_non_handler_names_ignored(self):
        assert codes_for("""\
            class Server:
                async def _decoded_block(self, request):
                    return request.served.decode(0)

                def _route(self, request):
                    return request.path
            """, SERVE) == []

    def test_sync_handler_also_checked(self):
        assert "SGL007" in codes_for("""\
            class Handlers:
                def handle_inspect(self, request):
                    return request.served.inspect()
            """, SERVE)

    def test_out_of_serve_tree_ignored(self):
        assert codes_for("""\
            class Handlers:
                async def _handle_block(self, request):
                    return request.served.decode(0)
            """, PIPELINE) == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------

class TestSuppressions:
    VIOLATION = """\
        def run(data, *, workers=None):  # sage-lint: disable=SGL003
            return data
        """

    def test_same_line_disable(self):
        findings, suppressed = lint_source(
            textwrap.dedent(self.VIOLATION), path=PIPELINE)
        assert findings == []
        assert suppressed == 1

    def test_disable_next(self):
        findings, suppressed = lint_source(textwrap.dedent("""\
            # sage-lint: disable-next=SGL003 - legacy shim
            def run(data, *, workers=None):
                return data
            """), path=PIPELINE)
        assert findings == []
        assert suppressed == 1

    def test_disable_file(self):
        findings, suppressed = lint_source(textwrap.dedent("""\
            # sage-lint: disable-file=SGL003
            def run(data, *, workers=None):
                return data

            def go(data, *, backend=None):
                return data
            """), path=PIPELINE)
        assert findings == []
        assert suppressed == 2

    def test_disable_all_wildcard(self):
        findings, suppressed = lint_source(textwrap.dedent("""\
            def run(data, *, workers=None):  # sage-lint: disable=all
                return data
            """), path=PIPELINE)
        assert findings == []
        assert suppressed == 1

    def test_disable_other_code_does_not_suppress(self):
        findings, suppressed = lint_source(textwrap.dedent("""\
            def run(data, *, workers=None):  # sage-lint: disable=SGL006
                return data
            """), path=PIPELINE)
        assert [f.code for f in findings] == ["SGL003"]
        assert suppressed == 0


# ----------------------------------------------------------------------
# select / ignore / output / errors
# ----------------------------------------------------------------------

MIXED = """\
    import random

    def run(data, *, workers=None):
        return data
    """


class TestSelectIgnore:
    def test_select_narrows(self):
        codes = codes_for(MIXED, KERNEL, select="SGL002")
        assert codes == ["SGL002"]

    def test_ignore_drops(self):
        codes = codes_for(MIXED, KERNEL, ignore="SGL002")
        assert codes == ["SGL003"]

    def test_unknown_code_is_usage_error(self):
        with pytest.raises(LintUsageError):
            lint_source("x = 1\n", path=CORE, select="SGL999")

    def test_syntax_error_becomes_sgl000(self):
        findings, _ = lint_source("def broken(:\n", path=CORE)
        assert [f.code for f in findings] == [PARSE_ERROR_CODE]

    def test_sgl000_survives_select(self):
        findings, _ = lint_source("def broken(:\n", path=CORE,
                                  select="SGL003")
        assert [f.code for f in findings] == [PARSE_ERROR_CODE]


class TestOutput:
    def test_finding_render_format(self):
        (finding,) = findings_for("""\
            def run(data, *, workers=None):
                return data
            """, PIPELINE)
        assert finding.render().startswith(
            f"{PIPELINE}:1:0: SGL003 ")

    def test_json_output_shape(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "pipeline" / "w.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def run(d, *, workers=None):\n    return d\n",
                       encoding="ascii")
        report = lint_paths([str(tmp_path)])
        payload = json.loads(render_report(report, as_json=True))
        assert payload["files_checked"] == 1
        assert payload["suppressed"] == 0
        (entry,) = payload["findings"]
        assert entry["code"] == "SGL003"
        assert entry["line"] == 1


class TestCli:
    def write_tree(self, tmp_path, source):
        target = tmp_path / "src" / "repro" / "pipeline" / "w.py"
        target.parent.mkdir(parents=True)
        target.write_text(textwrap.dedent(source), encoding="ascii")
        return target

    def test_exit_zero_on_clean(self, tmp_path, capsys):
        self.write_tree(tmp_path, "def run(d, *, options=None):\n"
                                  "    return d\n")
        assert lint_main([str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        self.write_tree(tmp_path, "def run(d, *, workers=None):\n"
                                  "    return d\n")
        assert lint_main([str(tmp_path)]) == 1
        assert "SGL003" in capsys.readouterr().out

    def test_exit_two_on_unknown_code(self, tmp_path, capsys):
        assert lint_main([str(tmp_path), "--select", "SGL999"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope")]) == 2
        assert "no such" in capsys.readouterr().err.lower()

    def test_json_flag(self, tmp_path, capsys):
        self.write_tree(tmp_path, "def run(d, *, workers=None):\n"
                                  "    return d\n")
        assert lint_main([str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["code"] == "SGL003"

    def test_sage_lint_subcommand(self, tmp_path, capsys):
        from repro.cli import main as sage_main
        self.write_tree(tmp_path, "def run(d, *, workers=None):\n"
                                  "    return d\n")
        assert sage_main(["lint", str(tmp_path)]) == 1
        assert "SGL003" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in available_rules():
            assert code in out


# ----------------------------------------------------------------------
# Dogfood: the real tree stays clean
# ----------------------------------------------------------------------

class TestDogfood:
    def test_repo_is_clean(self):
        report = lint_paths(["src", "tests", "benchmarks", "examples"])
        assert report.findings == [], "\n".join(
            f.render() for f in report.findings)
        assert report.files_checked > 100
        # The sanctioned carve-outs (kernel registry mechanism,
        # batching units) stay visible as suppressions, not rule holes.
        assert 0 < report.suppressed <= 7

    def test_at_least_six_rules_registered(self):
        assert len(available_rules()) >= 6
