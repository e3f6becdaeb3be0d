"""The ``gramer check`` rule engine.

A *rule* is a callable that inspects code and yields
:class:`Finding`\\ s.  Rules come in two scopes:

* **module** rules walk one parsed module at a time (the original
  engine): the engine parses each file once, hands the shared
  :class:`ModuleContext` to every selected rule, and filters findings
  through inline suppressions;
* **project** rules (:func:`project_rule`) receive a whole
  :class:`~repro.analysis.project.ProjectAnalysis` — module graph,
  resolved symbol table, call graph — and may report flows that cross
  file boundaries.  :func:`check_paths` runs them once per checked
  directory.

Suppressions name the rule IDs they silence::

    value = time.time()  # gramer: ignore[GRM102] -- wall time only

``# gramer: ignore`` with no bracket silences every rule on the line.
A trailing comment covers its own line; a *standalone* comment covers the
next code line.  Coverage extends across a statement's physical lines
(multi-line calls, decorated ``def``\\ s), so the comment and the finding
anchor do not have to share a line number.  Suppressions that silence
nothing are themselves findings (``GRM002``), except entries that name
``GRM002`` explicitly — the sanctioned way to keep a speculative entry.

Each file gets one analysis step: it parses the file once, walks the
tree once into a typed node index (:meth:`ModuleContext.of` returns the
nodes of the kinds asked for, in ``ast.walk`` order, so every module
rule and the suppression scanner read only the kinds they inspect),
reduces the same tree to the
:class:`~repro.analysis.summary.ModuleSummary` the project pass needs
and to the source sites the module rules query, and runs the module
rules.
The step's :class:`FileRecord` (findings, suppressions, summary) is
content-addressed in the runtime's
:class:`~repro.runtime.cache.ArtifactCache` (kind ``check/file``), keyed
by source hash and by a digest of the analyzer's own sources, so a warm
re-check of an unchanged tree re-parses nothing.  The project pass takes
its summaries from these records; it never parses on its own.

Rules are registered declaratively (:func:`rule`) into a process-wide
registry, keyed by a stable ID (``GRM<family><nn>``); families group IDs
by the invariant they protect.  The engine itself is repo-agnostic —
everything GRAMER-specific lives in :mod:`repro.analysis.rules`.
"""

from __future__ import annotations

import ast
import hashlib
import re
import tokenize
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    TypeVar,
    cast,
)

from .summary import SCAN_KINDS, ModuleSummary, SourceSite, summarize_module

if TYPE_CHECKING:
    from repro.runtime.cache import ArtifactCache

    from .project import ProjectAnalysis

__all__ = [
    "ANALYSIS_VERSION",
    "FileRecord",
    "Finding",
    "ModuleContext",
    "Rule",
    "RuleError",
    "Suppression",
    "all_rules",
    "analysis_digest",
    "check_paths",
    "check_source",
    "format_finding",
    "get_rule",
    "iter_python_files",
    "module_records",
    "project_rule",
    "rule",
    "select_rules",
]

#: Bump to invalidate every cached per-file record when the engine's
#: behavior changes in a way the source digest cannot see.
ANALYSIS_VERSION = 2

#: Relative-path fragments whose files never get GRM002 findings: fixture
#: corpora deliberately carry suppressions that tests point rules at.
_GRM002_EXEMPT_PARTS = ("tests/analysis/fixtures",)

_SUPPRESS_RE = re.compile(
    r"#\s*gramer:\s*ignore(?:\[(?P<ids>[A-Za-z0-9_,\s-]*)\])?"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a file position."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)


_Node = TypeVar("_Node", bound=ast.AST)

#: The expression-context leaves every ``Name``/``Attribute``/``Subscript``
#: (and starred or unpacked target) carries.  About a third of a module's
#: nodes, no rule reads them, so the node index skips them.
_CONTEXT_KINDS = frozenset({ast.Load, ast.Store, ast.Del})

#: Kinds whose fields never hold a node the index keeps (a ``Name``'s
#: one child is its context), so the walk does not look inside them.
_LEAF_KINDS = frozenset({ast.Name, ast.Constant})


def _node_index(
    tree: ast.AST,
) -> tuple[list[ast.AST], dict[type[ast.AST], list[int]]]:
    """``tree``'s nodes in ``ast.walk`` order, and their positions by type.

    One breadth-first walk over a list that grows behind its own cursor,
    in ``ast.walk``'s order, bar the context leaves (which have no
    children, so skipping them moves no other node).  Each node's
    position is filed under its exact type.  ``Name`` and ``Constant``
    are a third of a module's nodes, so skipping their field loop pays.
    """
    order: list[ast.AST] = [tree]
    append = order.append
    index: dict[type[ast.AST], list[int]] = {}
    for position, node in enumerate(order):
        kind = type(node)
        bucket = index.get(kind)
        if bucket is None:
            index[kind] = [position]
        else:
            bucket.append(position)
        if kind in _LEAF_KINDS:
            continue
        for name in node._fields:
            value = getattr(node, name, None)
            if isinstance(value, ast.AST):
                if type(value) not in _CONTEXT_KINDS:
                    append(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        append(item)
    return order, index


@dataclass(frozen=True)
class ModuleContext:
    """Everything a rule may inspect about one module: path, source, AST."""

    path: Path
    source: str
    tree: ast.Module
    # Path relative to the checked root, POSIX-style, for stable matching
    # (rules that scope themselves to sub-packages match against this).
    relpath: str
    #: ``tree``'s nodes (context leaves skipped) in ``ast.walk`` order and
    #: their positions by exact type, walked once here; :meth:`of` reads it.
    _order: list[ast.AST] = field(init=False, repr=False, compare=False)
    _index: dict[type[ast.AST], list[int]] = field(
        init=False, repr=False, compare=False
    )
    #: :func:`~repro.analysis.summary.summarize_module` of the module: the
    #: facts the project pass keeps (cached with the file record) ...
    summary: ModuleSummary = field(init=False, repr=False, compare=False)
    #: ... and the source sites the module rules query (not cached).
    source_sites: tuple[SourceSite, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        order, index = _node_index(self.tree)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_index", index)
        summary, sites = summarize_module(self.tree, self.of(*SCAN_KINDS))
        object.__setattr__(self, "summary", summary)
        object.__setattr__(self, "source_sites", sites)

    def of(self, *kinds: type[_Node]) -> list[_Node]:
        """The module's nodes of exactly these types, in ``ast.walk`` order.

        Types match exactly (``of(ast.stmt)`` finds nothing; list the
        concrete statement types).  ``Load``/``Store``/``Del`` context
        leaves are not indexed.
        """
        index = self._index
        if len(kinds) == 1:
            positions: Iterable[int] = index.get(kinds[0], ())
        else:
            # Each bucket is ascending, so the sort merges sorted runs.
            positions = sorted(
                chain.from_iterable(index.get(kind, ()) for kind in kinds)
            )
        order = self._order
        return cast("list[_Node]", [order[position] for position in positions])

    def sites(self, kind: str) -> Iterator[SourceSite]:
        """The module's source sites of one kind, in ``ast.walk`` order."""
        return (site for site in self.source_sites if site.kind == kind)

    def finding(
        self, node: ast.AST | SourceSite, rule_id: str, message: str
    ) -> Finding:
        """Build a finding anchored at ``node`` (or at a source site)."""
        return Finding(
            rule_id=rule_id,
            path=str(self.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


RuleFn = Callable[..., Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """A registered check: stable ID, family, docs, scope, implementation.

    ``scope`` is ``"module"`` (fn takes a :class:`ModuleContext`) or
    ``"project"`` (fn takes a :class:`ProjectAnalysis`).  ``explain`` is
    the long-form rationale ``gramer check --explain`` prints; it
    defaults to the rule function's docstring.
    """

    rule_id: str
    family: str
    summary: str
    fn: RuleFn
    scope: str = "module"
    explain: str = ""

    def run(self, context: ModuleContext) -> Iterator[Finding]:
        yield from self.fn(context)

    def run_project(self, project: "ProjectAnalysis") -> Iterator[Finding]:
        yield from self.fn(project)


class RuleError(ValueError):
    """Raised for unknown rule IDs or duplicate registrations."""


_REGISTRY: dict[str, Rule] = {}


def _register(
    rule_id: str,
    family: str,
    summary: str,
    fn: RuleFn,
    scope: str,
    explain: str | None,
) -> None:
    if rule_id in _REGISTRY:
        raise RuleError(f"rule {rule_id!r} registered twice")
    text = explain if explain is not None else (fn.__doc__ or "")
    _REGISTRY[rule_id] = Rule(
        rule_id=rule_id,
        family=family,
        summary=summary,
        fn=fn,
        scope=scope,
        explain=_dedent_doc(text),
    )


def _dedent_doc(text: str) -> str:
    import textwrap

    lines = text.strip("\n").splitlines()
    if not lines:
        return ""
    head, *rest = lines
    return "\n".join([head.strip(), textwrap.dedent("\n".join(rest))]).strip()


def rule(
    rule_id: str, family: str, summary: str, *, explain: str | None = None
) -> Callable[[RuleFn], RuleFn]:
    """Decorator registering ``fn`` as a module-scope rule ``rule_id``."""

    def decorate(fn: RuleFn) -> RuleFn:
        _register(rule_id, family, summary, fn, "module", explain)
        return fn

    return decorate


def project_rule(
    rule_id: str, family: str, summary: str, *, explain: str | None = None
) -> Callable[[RuleFn], RuleFn]:
    """Decorator registering ``fn`` as a project-scope rule.

    The function receives a :class:`~repro.analysis.project.ProjectAnalysis`
    covering one checked directory and yields findings anchored to any
    file in it.
    """

    def decorate(fn: RuleFn) -> RuleFn:
        _register(rule_id, family, summary, fn, "project", explain)
        return fn

    return decorate


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by ID (imports the rule modules)."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Resolve one rule by ID."""
    _load_builtin_rules()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise RuleError(
            f"unknown rule {rule_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


def _load_builtin_rules() -> None:
    # Importing the package registers every built-in rule via the decorator.
    from repro.analysis import rules  # noqa: F401


def select_rules(select: Iterable[str] | None = None) -> list[Rule]:
    """Rules matching ``select`` (IDs or family names); all when ``None``."""
    rules_ = all_rules()
    if not select:
        return rules_
    wanted = {token.strip() for token in select if token.strip()}
    known_ids = {r.rule_id for r in rules_}
    known_families = {r.family for r in rules_}
    unknown = wanted - known_ids - known_families
    if unknown:
        raise RuleError(
            f"unknown rule or family {sorted(unknown)}; "
            f"rules: {sorted(known_ids)}; families: {sorted(known_families)}"
        )
    return [
        r for r in rules_ if r.rule_id in wanted or r.family in wanted
    ]


# -- suppressions -----------------------------------------------------------


@dataclass(frozen=True)
class Suppression:
    """One ``# gramer: ignore`` comment and the code lines it silences.

    ``ids`` is ``None`` for a bare ``ignore`` (silences every rule).
    ``covered`` already includes statement-span and decorator aliasing,
    so membership is a plain lookup at filter time.
    """

    line: int
    col: int
    ids: tuple[str, ...] | None
    covered: tuple[int, ...]

    def silences(self, finding: Finding) -> bool:
        if finding.line not in self.covered:
            return False
        return self.ids is None or finding.rule_id.upper() in self.ids


#: Every concrete statement type, for :func:`_statement_units`' query.
_STATEMENT_KINDS: tuple[type[ast.stmt], ...] = tuple(ast.stmt.__subclasses__())


def _statement_units(statements: Iterable[ast.stmt]) -> dict[int, set[int]]:
    """Map each physical line to the full line-span of its statement unit.

    A *unit* is the set of lines a suppression anywhere inside it covers:
    a simple statement's whole span (multi-line calls, long literals), a
    compound statement's header (a ``def`` signature or ``if`` condition
    wrapped across lines), and a decorated definition's decorator lines
    plus the ``def``/``class`` line itself.
    """
    units: dict[int, set[int]] = {}

    def add(start: int, end: int) -> None:
        if end <= start:
            return
        span = set(range(start, end + 1))
        for line in span:
            units.setdefault(line, set()).update(span)

    for node in statements:
        decorators = getattr(node, "decorator_list", None)
        if decorators:
            add(decorators[0].lineno, node.lineno)
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            # Compound statement: the header may wrap across lines.
            add(node.lineno, body[0].lineno - 1)
        else:
            end = getattr(node, "end_lineno", None)
            if isinstance(end, int):
                add(node.lineno, end)
    return units


def _collect_suppressions(
    source: str, context: ModuleContext
) -> list[Suppression]:
    """Parse every suppression comment, with aliased line coverage.

    Parsed from real comment tokens, so a ``# gramer: ignore`` inside a
    string literal does not silence anything.  A trailing comment covers
    its own line; a *standalone* comment covers the next code line (so a
    multi-line reason can sit above the statement it excuses).  Both are
    then widened to the statement unit the covered line belongs to.

    Every comment token is a substring of the source, so a source the
    marker pattern never matches holds no suppression: it is neither
    tokenized nor split into statement units.
    """
    if not _SUPPRESS_RE.search(source):
        return []
    source_lines = source.splitlines()
    units = _statement_units(context.of(*_STATEMENT_KINDS))

    def comment_only(lineno: int) -> bool:  # 1-based line number
        if lineno > len(source_lines):
            return False
        stripped = source_lines[lineno - 1].strip()
        return not stripped or stripped.startswith("#")

    out: list[Suppression] = []
    lines = iter(source.splitlines(keepends=True))
    try:
        tokens = tokenize.generate_tokens(lambda: next(lines, ""))
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if not match:
                continue
            ids_text = match.group("ids")
            if ids_text is None or not ids_text.strip():
                ids: tuple[str, ...] | None = None
            else:
                ids = tuple(
                    sorted(
                        part.strip().upper()
                        for part in ids_text.split(",")
                        if part.strip()
                    )
                )
            line = token.start[0]
            prefix = source_lines[line - 1][: token.start[1]]
            if prefix.strip():
                base = line  # trailing comment: this line
            else:
                # Standalone comment: attach to the next code line.
                base = line + 1
                while comment_only(base):
                    base += 1
            covered: set[int] = {base}
            covered |= units.get(base, set())
            out.append(
                Suppression(
                    line=line,
                    col=token.start[1],
                    ids=ids,
                    covered=tuple(sorted(covered)),
                )
            )
    except tokenize.TokenError:
        pass
    return out


def _filter_findings(
    findings: Iterable[Finding], suppressions: list[Suppression]
) -> tuple[list[Finding], set[int]]:
    """Drop suppressed findings; return survivors + used comment lines."""
    kept: list[Finding] = []
    used: set[int] = set()
    for finding in findings:
        matched = False
        for entry in suppressions:
            if entry.silences(finding):
                matched = True
                used.add(entry.line)
        if not matched:
            kept.append(finding)
    return kept, used


def _grm002_exempt(relpath: str) -> bool:
    return any(part in relpath for part in _GRM002_EXEMPT_PARTS)


def _unused_suppression_findings(
    path: str, suppressions: list[Suppression], used: set[int]
) -> list[Finding]:
    """Synthesize GRM002 findings for entries that silenced nothing.

    GRM002 findings are never themselves suppressible — a bare unused
    entry would otherwise silence its own report.  Listing ``GRM002``
    in the bracket is the explicit acknowledgment that keeps an entry.
    """
    out: list[Finding] = []
    for entry in suppressions:
        if entry.line in used:
            continue
        if entry.ids is not None and "GRM002" in entry.ids:
            continue
        label = f"ignore[{', '.join(entry.ids)}]" if entry.ids else "ignore"
        out.append(
            Finding(
                rule_id="GRM002",
                path=path,
                line=entry.line,
                col=entry.col,
                message=(
                    f"unused suppression: {label} silences nothing on the "
                    "lines it covers — remove it, or acknowledge it with "
                    "GRM002 in the bracket if it must stay"
                ),
            )
        )
    return out


# -- per-file analysis ------------------------------------------------------


@dataclass(frozen=True)
class FileRecord:
    """Cached result of one file's analysis step.

    ``findings`` are already suppression-filtered; ``suppressions`` and
    ``used`` travel along so the project pass and GRM002 synthesis can
    finish the job without re-reading the file.  ``summary`` is what the
    project pass knows of the module (``None`` when it does not parse,
    and ``findings`` then holds the GRM000 finding).
    """

    path: str
    relpath: str
    findings: tuple[Finding, ...]
    suppressions: tuple[Suppression, ...]
    used: tuple[int, ...]
    summary: ModuleSummary | None


def _analyze_source(
    source: str,
    path: Path | str,
    rules: Iterable[Rule],
    relpath: str | None = None,
) -> FileRecord:
    """The one analysis step per file: parse, walk, summary, rules.

    No GRM002 synthesis yet: that needs the project pass's suppression
    hits too.
    """
    path = Path(path)
    rel = relpath if relpath is not None else path.as_posix()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        finding = Finding(
            rule_id="GRM000",
            path=str(path),
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            message=f"syntax error: {exc.msg}",
        )
        return FileRecord(
            path=str(path),
            relpath=rel,
            findings=(finding,),
            suppressions=(),
            used=(),
            summary=None,
        )
    context = ModuleContext(path=path, source=source, tree=tree, relpath=rel)
    suppressions = _collect_suppressions(source, context)
    raw = [
        finding
        for r in rules
        if r.scope == "module"
        for finding in r.run(context)
    ]
    kept, used = _filter_findings(raw, suppressions)
    return FileRecord(
        path=str(path),
        relpath=rel,
        findings=tuple(sorted(kept, key=Finding.sort_key)),
        suppressions=tuple(suppressions),
        used=tuple(sorted(used)),
        summary=context.summary,
    )


def check_source(
    source: str,
    path: Path | str,
    rules: Iterable[Rule] | None = None,
    relpath: str | None = None,
) -> list[Finding]:
    """Run module-scope ``rules`` over one module's source.

    Honors suppressions and reports unused ones (GRM002) when that rule
    is among ``rules``.  Project-scope rules are skipped — they need a
    :class:`~repro.analysis.project.ProjectAnalysis`, built by
    :func:`check_paths` over directories.
    """
    rules_ = list(rules) if rules is not None else all_rules()
    record = _analyze_source(source, path, rules_, relpath)
    findings = list(record.findings)
    if any(r.rule_id == "GRM002" for r in rules_) and not _grm002_exempt(
        record.relpath
    ):
        findings.extend(
            _unused_suppression_findings(
                record.path, list(record.suppressions), set(record.used)
            )
        )
    return sorted(findings, key=Finding.sort_key)


def iter_python_files(paths: Iterable[Path | str]) -> Iterator[Path]:
    """Expand files/directories into sorted ``.py`` files."""
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            yield from sorted(
                p for p in entry.rglob("*.py") if p.is_file()
            )
        elif entry.suffix == ".py":
            yield entry
        else:
            raise FileNotFoundError(f"not a Python file or directory: {entry}")


_digest_cache: str | None = None


def analysis_digest() -> str:
    """SHA-256 over the analyzer's own source files.

    Salting cache keys with this makes every file record
    self-invalidating: editing any rule or the engine re-checks the world
    once, then re-caches.
    """
    global _digest_cache
    if _digest_cache is None:
        package_root = Path(__file__).resolve().parent
        hasher = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            hasher.update(path.relative_to(package_root).as_posix().encode())
            hasher.update(b"\0")
            hasher.update(path.read_bytes())
            hasher.update(b"\0")
        _digest_cache = hasher.hexdigest()
    return _digest_cache


def _file_record_key(
    relpath: str, path: str, source_bytes: bytes, rule_ids: list[str]
) -> dict[str, Any]:
    return {
        "relpath": relpath,
        "path": path,
        "sha256": hashlib.sha256(source_bytes).hexdigest(),
        "rules": rule_ids,
        "analysis_digest": analysis_digest(),
        "analysis_version": ANALYSIS_VERSION,
    }


def _analyze_file_worker(
    path_str: str, relpath: str, rule_ids: tuple[str, ...]
) -> FileRecord:
    """Pool worker: the analysis step for one file (top-level, picklable)."""
    rules_ = [get_rule(rule_id) for rule_id in rule_ids]
    source = Path(path_str).read_text(encoding="utf-8")
    return _analyze_source(source, Path(path_str), rules_, relpath)


def module_records(
    files: Iterable[Path],
    rules: Iterable[Rule] = (),
    *,
    cache: "ArtifactCache | None" = None,
    jobs: int = 1,
) -> dict[str, FileRecord]:
    """Each file's :class:`FileRecord`, keyed by resolved absolute path.

    Records are looked up in ``cache`` first (kind ``check/file``); the
    misses run the analysis step, fanned out across a process pool when
    ``jobs > 1``, and are stored back.  The resolved-path keys let the
    project pass, whose paths come from a resolved root, find records of
    as-given relative arguments; records keep the as-given path.
    """
    rule_ids = tuple(sorted(r.rule_id for r in rules if r.scope == "module"))
    records: dict[str, FileRecord] = {}
    pending: list[tuple[Path, dict[str, Any]]] = []
    for path in files:
        key: dict[str, Any] = {}
        if cache is not None:
            key = _file_record_key(
                path.as_posix(), str(path), path.read_bytes(), list(rule_ids)
            )
            hit, value = cache.lookup("check/file", key)
            if hit and isinstance(value, FileRecord):
                records[str(path.resolve())] = value
                continue
        pending.append((path, key))

    work = [(str(path), path.as_posix(), rule_ids) for path, _ in pending]
    fresh: list[FileRecord]
    if jobs > 1 and len(work) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            fresh = list(pool.map(_analyze_file_worker, *zip(*work)))
    else:
        fresh = [_analyze_file_worker(*args) for args in work]
    for (path, key), record in zip(pending, fresh):
        if cache is not None:
            cache.store("check/file", key, record)
        records[str(path.resolve())] = record
    return records


def check_paths(
    paths: Iterable[Path | str],
    select: Iterable[str] | None = None,
    *,
    project: bool = True,
    use_cache: bool = True,
    cache: "ArtifactCache | None" = None,
    jobs: int = 1,
    only: Iterable[Path | str] | None = None,
) -> list[Finding]:
    """Run the engine over files/trees; returns all findings, sorted.

    Every file gets one analysis step (:func:`module_records`), with its
    record cached content-addressed (``use_cache``/``cache``) and cold
    steps fanned out across ``jobs`` processes.  Project-scope rules then
    run once per *directory* argument over a
    :class:`~repro.analysis.project.ProjectAnalysis` built from those
    records.  ``only`` restricts *reported* findings to the given files
    while the project pass still sees the whole tree (``gramer check
    --changed``).
    """
    rules_ = select_rules(select)
    project_rules = [r for r in rules_ if r.scope == "project"]
    grm002 = any(r.rule_id == "GRM002" for r in rules_)

    cache_obj: "ArtifactCache | None" = cache
    if cache_obj is None and use_cache:
        from repro.runtime.cache import default_cache

        cache_obj = default_cache()

    path_args = [Path(entry) for entry in paths]
    records = module_records(
        iter_python_files(path_args), rules_, cache=cache_obj, jobs=jobs
    )

    findings: list[Finding] = []
    used: dict[str, set[int]] = {
        resolved: set(record.used) for resolved, record in records.items()
    }
    for record in records.values():
        findings.extend(record.findings)

    # -- project pass (once per directory argument) -------------------------
    if project and project_rules:
        from .project import ProjectAnalysis

        for entry in path_args:
            if not entry.is_dir():
                continue
            analysis = ProjectAnalysis.build(entry, records=records)
            raw = [
                finding
                for r in project_rules
                for finding in r.run_project(analysis)
            ]
            for finding in raw:
                resolved = str(Path(finding.path).resolve())
                record = records.get(resolved)
                if record is None:
                    findings.append(finding)
                    continue
                matched = False
                for suppression in record.suppressions:
                    if suppression.silences(finding):
                        matched = True
                        used[resolved].add(suppression.line)
                if not matched:
                    findings.append(finding)

    # -- unused suppressions ------------------------------------------------
    if grm002:
        for resolved, record in records.items():
            if _grm002_exempt(record.relpath):
                continue
            findings.extend(
                _unused_suppression_findings(
                    record.path,
                    list(record.suppressions),
                    used[resolved],
                )
            )

    if only is not None:
        wanted = {str(Path(entry).resolve()) for entry in only}
        findings = [
            finding
            for finding in findings
            if str(Path(finding.path).resolve()) in wanted
        ]
    return sorted(findings, key=Finding.sort_key)


def format_finding(finding: Finding, style: str = "text") -> str:
    """Render one finding (``text`` for humans, ``github`` for CI annotations)."""
    if style == "github":
        # https://docs.github.com/actions/reference/workflow-commands
        return (
            f"::error file={finding.path},line={finding.line},"
            f"col={finding.col + 1},title={finding.rule_id}::{finding.message}"
        )
    if style == "text":
        return (
            f"{finding.path}:{finding.line}:{finding.col + 1}: "
            f"{finding.rule_id} {finding.message}"
        )
    raise ValueError(f"unknown format {style!r} (use 'text' or 'github')")
