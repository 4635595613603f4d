"""The ``sage lint`` visitor engine: AST walk, rule registry, findings.

Eight PRs grew SAGe into a multi-kernel, multi-backend streaming engine
whose correctness rests on *conventions*: the error taxonomy of
:mod:`repro.core.errors` (no raw ``struct.error``/``IndexError`` escapes
from malformed input), the byte-identity contract of the codec/mapper
kernel registries, the ``EngineOptions``-only knob threading of the
facade, the ``Sink.requires`` stream declarations, and pickle-safety of
everything crossing the process-pool boundary.  None of those are
visible to a generic linter — they are *this engine's* architectural
invariants.  This module turns them into a machine-checked gate: a
single-pass AST walker that dispatches each node to every registered
:class:`Rule`, collects typed :class:`LintFinding` records, honours
``# sage-lint: disable=...`` suppressions, and renders human or JSON
output with a nonzero exit on findings.

The rules themselves live in :mod:`repro.lint.rules` (codes ``SGL001``
… ``SGL007``); the engine knows nothing about any specific contract.

Suppression syntax (comment anywhere on the relevant line)::

    x = risky()            # sage-lint: disable=SGL001 - reason
    # sage-lint: disable-next=SGL003 - kernel-selection mechanism
    def decode(codec="auto"): ...
    # sage-lint: disable-file=SGL002

``disable`` silences the named codes on its own line, ``disable-next``
on the following line, ``disable-file`` in the whole file; ``all``
matches every code.  Suppressed findings are counted (and surfaced in
``--json``) so a silently rotting suppression is still visible.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

__all__ = ["FileContext", "LintFinding", "LintReport", "LintUsageError",
           "Rule", "available_rules", "lint_paths", "lint_source",
           "register_rule"]

#: Code reserved for files the engine cannot parse at all.
PARSE_ERROR_CODE = "SGL000"

_SUPPRESS_RE = re.compile(
    r"#\s*sage-lint:\s*(disable|disable-next|disable-file)\s*=\s*"
    r"([A-Za-z0-9_,\s]+?|all)\s*(?:-.*)?$")

#: Exception names that, when caught by an enclosing ``try``, guard a
#: bare-``ValueError``-raising parse (broad catches only — catching a
#: *subclass* of ValueError does not).
BROAD_GUARDS = frozenset({"ValueError", "Exception", "BaseException",
                          "*bare*"})


class LintUsageError(ValueError):
    """Bad linter invocation (unknown rule code, missing path)."""


@dataclass(frozen=True, order=True)
class LintFinding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: " \
               f"{self.code} {self.message}"

    def to_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "col": self.col,
                "code": self.code, "message": self.message}


@dataclass
class LintReport:
    """Outcome of one lint run over a set of paths."""

    findings: list[LintFinding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {"files_checked": self.files_checked,
                "suppressed": self.suppressed,
                "findings": [f.to_dict() for f in self.findings]}


# ----------------------------------------------------------------------
# Rule registry
# ----------------------------------------------------------------------

_RULES: dict[str, type["Rule"]] = {}

_CODE_RE = re.compile(r"^SGL\d{3}$")


class Rule:
    """Base class for lint rules.

    Subclasses set ``code`` (``SGLnnn``), ``name`` (short kebab-case
    slug), ``contract`` (the one-line invariant being enforced) and
    ``origin`` (which PR introduced the contract), and implement any
    number of ``visit_<NodeType>(node, ctx)`` hooks; the engine
    instantiates one rule object per file and calls each hook for every
    matching AST node in a single walk.  ``applies(ctx)`` restricts a
    rule to a path subset (the whole-file check is skipped entirely
    when it returns False).
    """

    code = ""
    name = ""
    contract = ""
    origin = ""

    def applies(self, ctx: "FileContext") -> bool:
        return True

    def begin_file(self, tree: ast.Module, ctx: "FileContext") -> None:
        """Optional pre-pass over the whole module (cross-node state)."""


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the registry (unique code)."""
    if not _CODE_RE.match(cls.code):
        raise ValueError(f"rule code must match SGLnnn, got {cls.code!r}")
    if cls.code in _RULES:
        raise ValueError(f"rule {cls.code} is already registered")
    _RULES[cls.code] = cls
    return cls


def available_rules() -> dict[str, type[Rule]]:
    """Registered rule classes by code, sorted."""
    # Import for side effects: the built-in rules self-register.
    from . import rules as _rules  # noqa: F401
    return dict(sorted(_RULES.items()))


def _resolve_codes(spec: str | Iterable[str] | None, *,
                   flag: str) -> frozenset[str] | None:
    """Validate a ``--select``/``--ignore`` code list against registry."""
    if spec is None:
        return None
    if isinstance(spec, str):
        spec = [spec]
    known = available_rules()
    codes = []
    for chunk in spec:
        codes.extend(c.strip() for c in chunk.split(",") if c.strip())
    for code in codes:
        if code != PARSE_ERROR_CODE and code not in known:
            raise LintUsageError(
                f"{flag}: unknown rule code {code!r}; registered: "
                f"{', '.join(known)}")
    return frozenset(codes)


# ----------------------------------------------------------------------
# Per-file context
# ----------------------------------------------------------------------


class FileContext:
    """Everything a rule may ask about the file being linted.

    Exposes the path (``rel`` is normalized to posix, repo-relative when
    under the working directory), the raw source lines, and the walker's
    scope state: ``func_stack`` / ``class_stack`` (innermost last) and
    ``guard_stack`` (the exception names each enclosing ``try`` body
    would catch).  Findings go through :meth:`report`, which applies the
    suppression comments.
    """

    def __init__(self, path: str, source: str):
        self.path = path
        self.rel = Path(path).as_posix()
        self.source = source
        self.lines = source.splitlines()
        self.func_stack: list[ast.AST] = []
        self.class_stack: list[ast.ClassDef] = []
        self.guard_stack: list[frozenset[str]] = []
        self.findings: list[LintFinding] = []
        self.suppressed = 0
        self._file_disabled: set[str] = set()
        self._line_disabled: dict[int, set[str]] = {}
        self._parse_suppressions()

    # -- path helpers --------------------------------------------------

    def in_paths(self, *prefixes: str) -> bool:
        """Whether the file lives under any of the given dir prefixes.

        Matching is by posix path *segments* against the tail of the
        file's path, so ``in_paths("repro/core")`` matches
        ``src/repro/core/bitio.py`` as well as an absolute spelling.
        """
        parts = self.rel.split("/")
        for prefix in prefixes:
            want = prefix.split("/")
            for i in range(len(parts) - len(want) + 1):
                if parts[i:i + len(want)] == want:
                    return True
        return False

    def is_file(self, *names: str) -> bool:
        """Whether the file's tail path matches one of ``names``."""
        return any(self.rel.endswith(name) for name in names)

    # -- suppression ---------------------------------------------------

    def _parse_suppressions(self) -> None:
        for lineno, text in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if not match:
                continue
            kind, codes_text = match.group(1), match.group(2)
            codes = {"all"} if codes_text.strip() == "all" else \
                {c.strip() for c in codes_text.split(",") if c.strip()}
            if kind == "disable-file":
                self._file_disabled |= codes
            elif kind == "disable-next":
                self._line_disabled.setdefault(lineno + 1,
                                               set()).update(codes)
            else:
                self._line_disabled.setdefault(lineno, set()).update(codes)

    def _is_suppressed(self, line: int, code: str) -> bool:
        if self._file_disabled & {code, "all"}:
            return True
        at_line = self._line_disabled.get(line, ())
        return code in at_line or "all" in at_line

    # -- reporting -----------------------------------------------------

    def report(self, node: ast.AST, code: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if self._is_suppressed(line, code):
            self.suppressed += 1
            return
        self.findings.append(
            LintFinding(self.rel, line, col, code, message))

    # -- scope helpers -------------------------------------------------

    @property
    def current_function(self) -> "ast.AST | None":
        return self.func_stack[-1] if self.func_stack else None

    @property
    def current_class(self) -> "ast.ClassDef | None":
        return self.class_stack[-1] if self.class_stack else None

    def guarded_by(self, names: frozenset[str] = BROAD_GUARDS) -> bool:
        """Whether an enclosing ``try`` body catches any of ``names``."""
        return any(guard & names for guard in self.guard_stack)


def _handler_names(handler: ast.ExceptHandler) -> frozenset[str]:
    """The exception names one ``except`` clause catches."""
    node = handler.type
    if node is None:
        return frozenset({"*bare*"})
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    names = set()
    for elt in elts:
        if isinstance(elt, ast.Name):
            names.add(elt.id)
        elif isinstance(elt, ast.Attribute):
            names.add(elt.attr)
    return frozenset(names)


class _Walker:
    """Single-pass AST traversal dispatching to every active rule.

    Maintains the function/class scope stacks and the try-guard stack
    on the shared :class:`FileContext`; ``Try`` is special-cased so that
    only the *body* and ``else`` of a ``try`` count as guarded by its
    handlers (code inside the handlers themselves does not).
    """

    def __init__(self, rules: Sequence[Rule], ctx: FileContext):
        self.ctx = ctx
        self.handlers: dict[str, list[Callable]] = {}
        for rule in rules:
            for attr in dir(rule):
                if attr.startswith("visit_"):
                    self.handlers.setdefault(
                        attr[len("visit_"):], []).append(getattr(rule, attr))

    def walk(self, node: ast.AST) -> None:
        ctx = self.ctx
        kind = type(node).__name__
        for hook in self.handlers.get(kind, ()):
            hook(node, ctx)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ctx.func_stack.append(node)
            self._walk_children(node)
            ctx.func_stack.pop()
        elif isinstance(node, ast.ClassDef):
            ctx.class_stack.append(node)
            self._walk_children(node)
            ctx.class_stack.pop()
        elif isinstance(node, ast.Try):
            caught = frozenset().union(
                *(_handler_names(h) for h in node.handlers)) \
                if node.handlers else frozenset()
            ctx.guard_stack.append(caught)
            for child in node.body + node.orelse:
                self.walk(child)
            ctx.guard_stack.pop()
            for handler in node.handlers:
                self.walk(handler)
            for child in node.finalbody:
                self.walk(child)
        else:
            self._walk_children(node)

    def _walk_children(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self.walk(child)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def lint_source(source: str, path: str = "<string>", *,
                select: Iterable[str] | None = None,
                ignore: Iterable[str] | None = None
                ) -> tuple[list[LintFinding], int]:
    """Lint one source string; returns ``(findings, n_suppressed)``.

    ``path`` drives the path-scoped rules (e.g. the error-taxonomy rule
    only fires under ``repro/core``), so tests can lint fixture snippets
    *as if* they lived at a given location.
    """
    selected = _resolve_codes(select, flag="--select")
    ignored = _resolve_codes(ignore, flag="--ignore") or frozenset()
    ctx = FileContext(path, source)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        ctx.findings.append(LintFinding(
            ctx.rel, exc.lineno or 1, (exc.offset or 1) - 1,
            PARSE_ERROR_CODE, f"cannot parse file: {exc.msg}"))
        return _filtered(ctx.findings, selected, ignored), ctx.suppressed
    rules = []
    for cls in available_rules().values():
        if selected is not None and cls.code not in selected:
            continue
        if cls.code in ignored:
            continue
        rule = cls()
        if rule.applies(ctx):
            rule.begin_file(tree, ctx)
            rules.append(rule)
    if rules:
        _Walker(rules, ctx).walk(tree)
    ctx.findings.sort()
    return _filtered(ctx.findings, selected, ignored), ctx.suppressed


def _filtered(findings: list[LintFinding],
              selected: frozenset[str] | None,
              ignored: frozenset[str]) -> list[LintFinding]:
    return [f for f in findings
            if (selected is None or f.code in selected
                or f.code == PARSE_ERROR_CODE)
            and f.code not in ignored]


def iter_python_files(paths: Iterable[str]) -> Iterable[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    seen = set()
    for spec in paths:
        root = Path(spec)
        if not root.exists():
            raise LintUsageError(f"no such file or directory: {spec}")
        candidates = [root] if root.is_file() \
            else sorted(root.rglob("*.py"))
        for candidate in candidates:
            if candidate.suffix != ".py":
                continue
            if "__pycache__" in candidate.parts:
                continue
            key = candidate.resolve()
            if key in seen:
                continue
            seen.add(key)
            yield candidate


def lint_paths(paths: Sequence[str], *,
               select: Iterable[str] | None = None,
               ignore: Iterable[str] | None = None) -> LintReport:
    """Lint every ``.py`` file under ``paths``; returns a report."""
    # Validate the code lists up front so an unknown code is a usage
    # error even when no files match.
    _resolve_codes(select, flag="--select")
    _resolve_codes(ignore, flag="--ignore")
    report = LintReport()
    for path in iter_python_files(paths):
        source = path.read_text(encoding="utf-8")
        findings, suppressed = lint_source(source, str(path),
                                           select=select, ignore=ignore)
        report.findings.extend(findings)
        report.suppressed += suppressed
        report.files_checked += 1
    report.findings.sort()
    return report


def render_report(report: LintReport, *, as_json: bool = False) -> str:
    """Human or JSON rendering of a lint report."""
    if as_json:
        return json.dumps(report.to_dict(), indent=2, sort_keys=True)
    lines = [finding.render() for finding in report.findings]
    summary = (f"{len(report.findings)} finding(s) in "
               f"{report.files_checked} file(s)")
    if report.suppressed:
        summary += f", {report.suppressed} suppressed"
    lines.append(summary)
    return "\n".join(lines)
