"""The built-in ``SGL`` rules: SAGe's architectural contracts, checked.

Each rule enforces one invariant that an earlier PR established by
convention and that nothing machine-checked until now:

========  ======================  ============================================
Code      Name                    Contract (origin)
========  ======================  ============================================
SGL001    error-taxonomy          Decode/parse paths in ``core``/``pipeline``
                                  raise :mod:`repro.core.errors` types, never
                                  bare ``ValueError``/``KeyError``/
                                  ``struct.error``, and never swallow broad
                                  exceptions (PR 7).
SGL002    kernel-determinism      Codec/mapper kernel modules import no
                                  nondeterminism (``random``/``time``/
                                  ``datetime``) and read environment variables
                                  only inside registry resolvers — archives
                                  must stay byte-identical across kernels
                                  (PR 5/6).
SGL003    options-threading       No function outside ``core/options.py`` grows
                                  ``workers=``/``backend=``/``prefetch=``/
                                  ``block_reads=``/``codec=``/``mapper=``
                                  keyword parameters; engine knobs route
                                  through ``EngineOptions`` (PR 4).
SGL004    sink-contract           Every Sink implementation declares
                                  ``requires`` and a ``consume(self, index,
                                  block)`` of the right arity; ``consume_gap``,
                                  if present, takes exactly ``(self, gap)``
                                  (PR 2/7/8).
SGL005    pool-pickle-safety      No lambdas or local functions are submitted
                                  to executor pools, and every error in the
                                  :class:`~repro.core.errors.SAGeError` family
                                  with a keyword-only ``__init__`` keeps a
                                  pickle-roundtrippable ``__reduce__`` (PR 7).
SGL006    mmap-lifetime           No ``memoryview`` taken from an archive
                                  payload is stored onto ``self`` outside
                                  ``core/container.py`` — a pinned view
                                  outlives ``SAGeArchive.close()`` (PR 8).
SGL007    serve-error-mapping     Serve request handlers never let a
                                  :class:`~repro.core.errors.SAGeError`
                                  escape unmapped: every ``_handle_*`` /
                                  ``handle_*`` coroutine in ``repro/serve``
                                  wears ``@sage_error_boundary`` or catches
                                  the taxonomy itself, mapping damage to an
                                  HTTP status + JSON body (PR 10).
========  ======================  ============================================

Rules are deliberately *syntactic*: they flag the patterns through which
the contracts have historically rotted, not every conceivable semantic
escape.  Sanctioned exceptions (the kernel-selection mechanism itself,
batching units that are not engine knobs) carry inline
``# sage-lint: disable=SGLnnn - reason`` suppressions so the carve-out
is visible at the definition site.
"""

from __future__ import annotations

import ast
import re

from .engine import (BROAD_GUARDS, FileContext, Rule, _handler_names,
                     register_rule)

__all__ = ["KERNEL_MODULES", "OPTION_KNOBS", "SinkContractRule",
           "ErrorTaxonomyRule", "KernelDeterminismRule",
           "MmapLifetimeRule", "OptionsThreadingRule",
           "PoolPickleSafetyRule", "ServeErrorMappingRule"]

#: The engine knobs :class:`repro.api.EngineOptions` owns (PR 4).
OPTION_KNOBS = frozenset({"workers", "backend", "prefetch",
                          "block_reads", "codec", "mapper"})

#: The codec/mapper kernel modules bound by the byte-identity contract.
KERNEL_MODULES = ("repro/core/kernels.py", "repro/core/bitio.py",
                  "repro/core/prefix_codes.py", "repro/mapping/batch.py",
                  "repro/mapping/mapper.py", "repro/mapping/alignment.py",
                  "repro/mapping/kmer_index.py")

#: Bare exception types the error taxonomy replaces on decode paths.
_BARE_ERRORS = frozenset({"ValueError", "KeyError", "IndexError",
                          "TypeError", "RuntimeError"})

#: Function names that constitute a decode/parse path.
_DECODE_NAME = re.compile(
    r"^_?(decode|decompress|deserialize|parse|unpack|from_bytes|load|"
    r"iter_block|read(_|$))")


def _func_name(node: ast.AST) -> str:
    return getattr(node, "name", "")


def _raised_name(node: ast.Raise) -> str | None:
    """The textual name of the exception a ``raise`` constructs."""
    exc = node.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        # struct.error style: report the dotted tail.
        value = exc.value
        if isinstance(value, ast.Name):
            return f"{value.id}.{exc.attr}"
        return exc.attr
    return None


@register_rule
class ErrorTaxonomyRule(Rule):
    """SGL001: malformed input must fail through the typed taxonomy.

    Inside ``core``/``pipeline`` decode and parse paths (functions named
    ``decode*``/``decompress*``/``deserialize*``/``parse*``/``read*``/
    ``unpack*``/``from_bytes*``, plus the constructors of classes that
    define ``deserialize``/``from_bytes`` — they validate wire data):

    - no ``raise`` of bare ``ValueError``/``KeyError``/``IndexError``/
      ``TypeError``/``RuntimeError``/``struct.error`` — use the
      :mod:`repro.core.errors` types, which carry block/stream/offset
      context and which ``sage verify``/``salvage`` key off;
    - no ``int()``/``float()`` text parsing outside a ``try`` that
      catches ``ValueError`` (malformed archive text must not escape as
      a bare conversion error);
    - nowhere in scope may a broad ``except`` silently swallow
      (``except Exception: pass`` hides corruption).
    """

    code = "SGL001"
    name = "error-taxonomy"
    contract = ("decode/parse paths raise repro.core.errors types with "
                "block/stream context; no silent broad excepts")
    origin = "PR 7"

    def __init__(self) -> None:
        self._wire_classes: set[str] = set()
        self._text_parse_cache: dict[int, bool] = {}

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_paths("repro/core", "repro/pipeline")

    def begin_file(self, tree: ast.Module, ctx: FileContext) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(item, (ast.FunctionDef,
                                      ast.AsyncFunctionDef))
                    and item.name in ("deserialize", "from_bytes")
                    for item in node.body):
                self._wire_classes.add(node.name)

    # -- helpers -------------------------------------------------------

    def _in_decode_path(self, ctx: FileContext) -> bool:
        func = ctx.current_function
        if func is None:
            return False
        name = _func_name(func)
        if _DECODE_NAME.match(name):
            return True
        cls = ctx.current_class
        return (name in ("__init__", "__post_init__") and cls is not None
                and cls.name in self._wire_classes)

    def _is_text_parser(self, func: ast.AST) -> bool:
        """Whether ``func`` parses text (splits strings, decodes bytes).

        The precondition for the ``int()``/``float()`` check: numeric
        casts of numpy scalars are everywhere in the kernels and never
        raise on malformed archives; conversions of *parsed text* do.
        """
        key = id(func)
        cached = self._text_parse_cache.get(key)
        if cached is not None:
            return cached
        found = False
        for node in ast.walk(func):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            if attr in ("split", "rsplit", "partition", "rpartition",
                        "splitlines"):
                found = True
                break
            if attr == "decode" and node.args and isinstance(
                    node.args[0], ast.Constant) and isinstance(
                    node.args[0].value, str):
                found = True
                break
        self._text_parse_cache[key] = found
        return found

    # -- checks --------------------------------------------------------

    def visit_Raise(self, node: ast.Raise, ctx: FileContext) -> None:
        if not self._in_decode_path(ctx):
            return
        name = _raised_name(node)
        if name in _BARE_ERRORS or name == "struct.error":
            ctx.report(node, self.code,
                       f"decode/parse path raises bare {name}; raise a "
                       f"repro.core.errors type (CorruptArchiveError/"
                       f"BlockDecodeError/...) with block/stream context")

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        if not (isinstance(node.func, ast.Name)
                and node.func.id in ("int", "float") and node.args):
            return
        if isinstance(node.args[0], ast.Constant):
            return
        if not self._in_decode_path(ctx):
            return
        func = ctx.current_function
        if func is None or not self._is_text_parser(func):
            return
        if ctx.guarded_by(BROAD_GUARDS):
            return
        ctx.report(node, self.code,
                   f"unguarded {node.func.id}() on parsed text in a "
                   f"decode path; malformed input escapes as a bare "
                   f"ValueError — wrap in try/except and raise a "
                   f"repro.core.errors type")

    def visit_ExceptHandler(self, node: ast.ExceptHandler,
                            ctx: FileContext) -> None:
        if not all(isinstance(stmt, (ast.Pass, ast.Continue))
                   for stmt in node.body):
            return
        caught = node.type
        names = set()
        if caught is None:
            names.add("*bare*")
        else:
            elts = caught.elts if isinstance(caught, ast.Tuple) \
                else [caught]
            names.update(e.id for e in elts if isinstance(e, ast.Name))
        if names & {"*bare*", "Exception", "BaseException"}:
            ctx.report(node, self.code,
                       "broad except silently swallows; corruption must "
                       "surface through the error taxonomy, not vanish")


@register_rule
class KernelDeterminismRule(Rule):
    """SGL002: kernel modules are pure functions of their input.

    Archives are byte-identical across mapper kernels and decoded reads
    identical across codec kernels — that contract dies the moment a
    kernel consults a clock, an RNG, or an environment variable outside
    the registry resolvers.
    """

    code = "SGL002"
    name = "kernel-determinism"
    contract = ("kernel modules import no random/time/datetime and read "
                "env vars only inside resolve_* registry functions")
    origin = "PR 5/6"

    _BANNED_IMPORTS = frozenset({"random", "time", "datetime",
                                 "secrets", "uuid"})

    def applies(self, ctx: FileContext) -> bool:
        return ctx.is_file(*KERNEL_MODULES)

    def _check_module(self, node: ast.AST, ctx: FileContext,
                      module: str) -> None:
        root = module.split(".")[0]
        if root in self._BANNED_IMPORTS:
            ctx.report(node, self.code,
                       f"kernel module imports {root!r}; kernels must be "
                       f"deterministic (byte-identity contract)")

    def visit_Import(self, node: ast.Import, ctx: FileContext) -> None:
        for alias in node.names:
            self._check_module(node, ctx, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom,
                         ctx: FileContext) -> None:
        if node.module and not node.level:
            self._check_module(node, ctx, node.module)

    def _env_allowed(self, ctx: FileContext) -> bool:
        return any(_func_name(f).startswith("resolve_")
                   for f in ctx.func_stack)

    def visit_Attribute(self, node: ast.Attribute,
                        ctx: FileContext) -> None:
        if not (isinstance(node.value, ast.Name)
                and node.value.id == "os"
                and node.attr in ("environ", "getenv")):
            return
        if self._env_allowed(ctx):
            return
        ctx.report(node, self.code,
                   f"os.{node.attr} read outside a resolve_* registry "
                   f"resolver; kernels may not depend on ambient "
                   f"environment")


@register_rule
class OptionsThreadingRule(Rule):
    """SGL003: engine knobs thread through ``EngineOptions`` only.

    PR 4 collapsed the ``workers=``/``backend=``/... keyword sprawl into
    one validated options object; a function that regrows such a
    parameter reopens the drift the facade closed.  Sanctioned sites —
    the kernel-selection mechanism itself and batching units that are
    not engine knobs — carry inline suppressions naming their reason.
    """

    code = "SGL003"
    name = "options-threading"
    contract = ("no function outside core/options.py takes workers/"
                "backend/prefetch/block_reads/codec/mapper parameters")
    origin = "PR 4"

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_paths("src/repro") \
            and not ctx.is_file("repro/core/options.py")

    def _check(self, node: ast.AST, ctx: FileContext) -> None:
        args = node.args
        names = [a.arg for a in
                 args.posonlyargs + args.args + args.kwonlyargs]
        knobs = sorted(OPTION_KNOBS.intersection(names))
        if knobs:
            ctx.report(node, self.code,
                       f"function {_func_name(node)}() takes engine "
                       f"knob parameter(s) {', '.join(knobs)}; thread "
                       f"them through repro.api.EngineOptions "
                       f"(options=...) instead")

    visit_FunctionDef = _check
    visit_AsyncFunctionDef = _check


def _required_positional(func: ast.FunctionDef) -> int:
    args = func.args
    return len(args.posonlyargs) + len(args.args) - len(args.defaults)


def _is_protocol(node: ast.ClassDef) -> bool:
    for base in node.bases:
        target = base.value if isinstance(base, ast.Subscript) else base
        name = target.attr if isinstance(target, ast.Attribute) \
            else getattr(target, "id", "")
        if name == "Protocol":
            return True
    return False


@register_rule
class SinkContractRule(Rule):
    """SGL004: sinks declare their streams and keep the hook arities.

    A class implementing the Sink protocol (``consume`` + ``finish``)
    must declare ``requires`` — the stream groups it actually decodes
    (``None`` opts into the conservative full decode *explicitly*) —
    and keep ``consume(self, index, block)``; an optional
    ``consume_gap`` takes exactly ``(self, gap)``, or the fault-tolerant
    executor's hook dispatch breaks at the first lost block.
    """

    code = "SGL004"
    name = "sink-contract"
    contract = ("Sink implementations declare requires and keep "
                "consume/consume_gap arities")
    origin = "PR 2/7/8"

    def visit_ClassDef(self, node: ast.ClassDef,
                       ctx: FileContext) -> None:
        if _is_protocol(node):
            return
        methods = {item.name: item for item in node.body
                   if isinstance(item, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))}
        gap = methods.get("consume_gap")
        if gap is not None and _required_positional(gap) != 2:
            ctx.report(gap, self.code,
                       f"consume_gap must take exactly (self, gap); "
                       f"{node.name}.consume_gap takes "
                       f"{_required_positional(gap)} required args")
        if not {"consume", "finish"} <= methods.keys():
            return
        declared = set()
        for item in node.body:
            if isinstance(item, ast.Assign):
                declared.update(t.id for t in item.targets
                                if isinstance(t, ast.Name))
            elif isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name):
                declared.add(item.target.id)
        if "requires" not in declared:
            ctx.report(node, self.code,
                       f"sink {node.name} does not declare requires; "
                       f"name the stream groups it consumes (or "
                       f"requires = None for an explicit full decode) "
                       f"so selective decode can skip the rest")
        consume = methods["consume"]
        if _required_positional(consume) != 3:
            ctx.report(consume, self.code,
                       f"{node.name}.consume must take (self, index, "
                       f"block); it takes "
                       f"{_required_positional(consume)} required args")


@register_rule
class PoolPickleSafetyRule(Rule):
    """SGL005: everything crossing the pool boundary must pickle.

    Lambdas and function-local ``def``s die at the process-pool
    boundary with an opaque ``PicklingError`` — only at runtime, only
    on the process backend.  Likewise, a :class:`SAGeError` subclass
    whose ``__init__`` takes keyword-only arguments silently loses them
    through default exception pickling unless it keeps a ``__reduce__``
    (the executor ships decode errors across the pool, PR 7).
    """

    code = "SGL005"
    name = "pool-pickle-safety"
    contract = ("no lambdas/local functions into executor pools; "
                "SAGeError subclasses stay pickle-roundtrippable")
    origin = "PR 3/7"

    _POOL_CALLS = frozenset({"submit", "map", "imap_bounded"})
    _ERROR_SEEDS = frozenset({
        "SAGeError", "ContainerError", "DecompressionError",
        "CorruptArchiveError", "TruncatedArchiveError",
        "BlockDecodeError", "BitIOError"})
    _REDUCE_SEEDS = frozenset({
        "_ContextMixin", "CorruptArchiveError", "TruncatedArchiveError",
        "BlockDecodeError"})

    def __init__(self) -> None:
        self._error_family: set[str] = set()
        self._reduce_providers: set[str] = set()
        self._nested_cache: dict[int, frozenset[str]] = {}

    def begin_file(self, tree: ast.Module, ctx: FileContext) -> None:
        bases: dict[str, set[str]] = {}
        defines_reduce: set[str] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            names = set()
            for base in node.bases:
                target = base.value if isinstance(base, ast.Subscript) \
                    else base
                name = target.attr \
                    if isinstance(target, ast.Attribute) \
                    else getattr(target, "id", "")
                if name:
                    names.add(name)
            bases[node.name] = names
            if any(isinstance(item, ast.FunctionDef)
                   and item.name == "__reduce__" for item in node.body):
                defines_reduce.add(node.name)
        family = set(self._ERROR_SEEDS)
        providers = set(self._REDUCE_SEEDS) | defines_reduce
        changed = True
        while changed:
            changed = False
            for name, parents in bases.items():
                if name not in family and parents & family:
                    family.add(name)
                    changed = True
                if name not in providers and parents & providers:
                    providers.add(name)
                    changed = True
        self._error_family = family
        self._reduce_providers = providers

    # -- pool submissions ---------------------------------------------

    def _nested_names(self, func: ast.AST) -> frozenset[str]:
        key = id(func)
        cached = self._nested_cache.get(key)
        if cached is None:
            cached = frozenset(
                item.name for item in ast.walk(func)
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef))
                and item is not func)
            self._nested_cache[key] = cached
        return cached

    _POOL_RECEIVER = re.compile(r"(executor|pool)", re.IGNORECASE)

    def _receiver_name(self, func: ast.Attribute) -> str:
        value = func.value
        if isinstance(value, ast.Name):
            return value.id
        if isinstance(value, ast.Attribute):
            return value.attr
        return ""

    def visit_Call(self, node: ast.Call, ctx: FileContext) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
            # ``.map``/``.submit`` exist on plenty of non-pool objects
            # (hypothesis strategies, futures libraries); only flag
            # receivers that read as an executor or pool.
            if name in ("map", "submit") and not self._POOL_RECEIVER.search(
                    self._receiver_name(func)):
                return
        elif isinstance(func, ast.Name):
            name = func.id
            if name in ("map", "submit"):   # builtin map(), bare names
                return
        else:
            return
        if name not in self._POOL_CALLS:
            return
        local_defs = frozenset().union(
            *(self._nested_names(f) for f in ctx.func_stack)) \
            if ctx.func_stack else frozenset()
        for arg in node.args:
            if isinstance(arg, ast.Lambda):
                ctx.report(arg, self.code,
                           f"lambda passed to {name}(); pools pickle "
                           f"their tasks — use a module-level function")
            elif isinstance(arg, ast.Name) and arg.id in local_defs:
                ctx.report(arg, self.code,
                           f"local function {arg.id!r} passed to "
                           f"{name}(); pools pickle their tasks — "
                           f"hoist it to module level")

    # -- error pickle round-trips -------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef,
                       ctx: FileContext) -> None:
        if node.name not in self._error_family:
            return
        init = next((item for item in node.body
                     if isinstance(item, ast.FunctionDef)
                     and item.name == "__init__"), None)
        if init is None or not init.args.kwonlyargs:
            return
        if node.name in self._reduce_providers:
            return
        ctx.report(node, self.code,
                   f"{node.name} is a SAGeError with keyword-only "
                   f"__init__ arguments but no __reduce__; it loses "
                   f"its context when shipped across a process pool")


@register_rule
class MmapLifetimeRule(Rule):
    """SGL006: archive payload views never outlive the archive.

    ``SAGeArchive.open`` hands out zero-copy ``memoryview`` slices of
    the archive mmap; storing one on ``self`` pins the mapping past
    ``close()`` and turns a later access into a crash (or, worse, a
    silent read of remapped pages).  Only ``core/container.py`` — the
    view's owner, which knows when to release — may hold one.
    """

    code = "SGL006"
    name = "mmap-lifetime"
    contract = ("no memoryview of an archive payload stored on self "
                "outside core/container.py")
    origin = "PR 8"

    _PAYLOAD_CALLS = frozenset({"block_payload", "_checked_payload"})

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_paths("src/repro") \
            and not ctx.is_file("repro/core/container.py")

    def _offending_call(self, value: ast.AST) -> str | None:
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Name):
                if func.id == "memoryview":
                    return "memoryview(...)"
                if func.id in ("bytes", "bytearray"):
                    # Copying the view is exactly the sanctioned fix.
                    return None
            if isinstance(func, ast.Attribute) \
                    and func.attr in self._PAYLOAD_CALLS:
                return f".{func.attr}(...)"
        for child in ast.iter_child_nodes(value):
            found = self._offending_call(child)
            if found is not None:
                return found
        return None

    def _check_assign(self, node: ast.AST, targets, value,
                      ctx: FileContext) -> None:
        if value is None:
            return
        if not any(isinstance(t, ast.Attribute)
                   and isinstance(t.value, ast.Name)
                   and t.value.id == "self" for t in targets):
            return
        source = self._offending_call(value)
        if source is not None:
            ctx.report(node, self.code,
                       f"storing {source} on self pins the archive "
                       f"mmap past close(); copy with bytes() or keep "
                       f"the view local (only core/container.py owns "
                       f"payload views)")

    def visit_Assign(self, node: ast.Assign, ctx: FileContext) -> None:
        self._check_assign(node, node.targets, node.value, ctx)

    def visit_AnnAssign(self, node: ast.AnnAssign,
                        ctx: FileContext) -> None:
        self._check_assign(node, [node.target], node.value, ctx)

    def visit_AugAssign(self, node: ast.AugAssign,
                        ctx: FileContext) -> None:
        self._check_assign(node, [node.target], node.value, ctx)


@register_rule
class ServeErrorMappingRule(Rule):
    """SGL007: serve handlers map the error taxonomy to HTTP responses.

    A request handler that lets :class:`SAGeError` escape turns archive
    damage into a dropped connection or an opaque 500 with no block
    context — exactly the failure mode the typed taxonomy exists to
    prevent.  Every handler coroutine in ``repro/serve`` (named
    ``handle_*`` or ``_handle_*``) must either wear the
    ``@sage_error_boundary`` decorator (which renders
    ``SAGeError.context`` into the JSON error body) or wrap its whole
    body in a ``try`` that catches the taxonomy itself.
    """

    code = "SGL007"
    name = "serve-error-mapping"
    contract = ("serve request handlers map SAGeError to HTTP statuses "
                "via @sage_error_boundary or try/except SAGeError")
    origin = "PR 10"

    _FAMILY = frozenset({
        "SAGeError", "ContainerError", "DecompressionError",
        "CorruptArchiveError", "TruncatedArchiveError",
        "BlockDecodeError", "BitIOError"})
    _HANDLER = re.compile(r"^_?handle_")

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_paths("repro/serve")

    @staticmethod
    def _decorated(node: ast.AST) -> bool:
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) \
                else getattr(target, "id", "")
            if name.endswith("error_boundary"):
                return True
        return False

    def _body_guarded(self, node: ast.AST) -> bool:
        body = list(node.body)
        if body and isinstance(body[0], ast.Expr) and isinstance(
                body[0].value, ast.Constant) and isinstance(
                body[0].value.value, str):
            body = body[1:]          # skip the docstring
        if len(body) != 1 or not isinstance(body[0], ast.Try):
            return False
        return any(_handler_names(handler) & self._FAMILY
                   for handler in body[0].handlers)

    def _check(self, node: ast.AST, ctx: FileContext) -> None:
        if not self._HANDLER.match(_func_name(node)):
            return
        if self._decorated(node) or self._body_guarded(node):
            return
        ctx.report(node, self.code,
                   f"serve handler {_func_name(node)}() neither wears "
                   f"@sage_error_boundary nor catches SAGeError; a "
                   f"damaged archive would escape as an unmapped "
                   f"exception instead of an HTTP error body")

    visit_FunctionDef = _check
    visit_AsyncFunctionDef = _check
