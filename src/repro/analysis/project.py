"""Whole-program analysis: the module graph and resolved symbol table.

:meth:`ProjectAnalysis.build` indexes one root directory (typically
``src/repro``) from its modules' summaries
(:mod:`repro.analysis.summary`) and resolves names across file
boundaries: import aliases, re-export chains, ``self.`` method calls
(including single-inheritance bases), and dotted module attributes.  The
result is the substrate the GRM10xx project rules query — see
:mod:`repro.analysis.callgraph` for edges and reachability and
:mod:`repro.analysis.taint` for the interprocedural taint fixpoint.

The summaries come from the per-file analysis step's
:class:`~repro.analysis.core.FileRecord`\\ s, the same records (and the
same ``check/file`` cache entries) the module rules fill, so this pass
never parses, caches or fans out on its own.  Module names are given
here, relative to the root, and relative imports resolve against them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

from .core import FileRecord, iter_python_files, module_records
from .summary import BackendInfo, FunctionSummary, ModuleSummary, SpecClassInfo

__all__ = ["ProjectAnalysis"]


def _module_name(root: Path, path: Path, prefix: str) -> str:
    parts = list(path.relative_to(root).parts)
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if prefix:
        parts = [prefix, *parts]
    return ".".join(parts)


@dataclass
class ProjectAnalysis:
    """Summaries plus cross-module name resolution for one source root."""

    root: Path
    modules: dict[str, ModuleSummary] = field(default_factory=dict)
    paths: dict[str, Path] = field(default_factory=dict)
    #: module -> parse error message, for files the pass had to skip.
    errors: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._functions: dict[str, FunctionSummary] = {}
        self._top_level: dict[str, dict[str, str]] = {}
        self._classes: dict[str, dict[str, frozenset[str]]] = {}
        self._bases: dict[str, dict[str, tuple[str, ...]]] = {}
        self._imports: dict[str, dict[str, str]] = {}
        self._graph: Any = None

    def callgraph(self) -> Any:
        """The project :class:`~repro.analysis.callgraph.CallGraph` (lazy)."""
        if self._graph is None:
            from .callgraph import CallGraph

            self._graph = CallGraph.build(self)
        return self._graph

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        root: Path | str,
        *,
        records: Mapping[str, FileRecord] | None = None,
    ) -> "ProjectAnalysis":
        """Index the summary of every ``.py`` file under ``root``.

        ``records`` maps resolved paths to the per-file analysis step's
        records (:func:`~repro.analysis.core.module_records`), as
        :func:`~repro.analysis.core.check_paths` passes them; without it
        that step runs here, uncached.
        """
        root = Path(root).resolve()
        prefix = root.name if (root / "__init__.py").is_file() else ""
        files = list(iter_python_files([root]))
        if records is None:
            records = module_records(files)
        project = cls(root=root)
        for path in files:
            module = _module_name(root, path, prefix)
            project._admit(module, path, records[str(path.resolve())])
        return project

    def _admit(self, module: str, path: Path, record: FileRecord) -> None:
        self.paths[module] = path
        summary = record.summary
        if summary is None:
            self.errors[module] = record.findings[0].message
            return
        self.modules[module] = summary
        self._imports[module] = summary.imports_dict(module)
        self._classes[module] = summary.class_methods()
        self._bases[module] = dict(summary.class_bases)
        top: dict[str, str] = {}
        for fn in summary.functions:
            key = f"{module}:{fn.qualname}"
            self._functions[key] = fn
            if fn.class_name is None:
                top[fn.name] = key
        self._top_level[module] = top

    # -- lookups ------------------------------------------------------------

    def functions(self) -> Iterator[tuple[str, str, FunctionSummary]]:
        """Yield ``(fn_key, module, summary)`` for every known function."""
        for key, fn in self._functions.items():
            yield key, key.split(":", 1)[0], fn

    def function(self, key: str) -> FunctionSummary | None:
        return self._functions.get(key)

    def path_of(self, key_or_module: str) -> Path:
        return self.paths[key_or_module.split(":", 1)[0]]

    def backends(self) -> Iterator[tuple[str, BackendInfo]]:
        for module, summary in self.modules.items():
            for backend in summary.backends:
                yield module, backend

    def spec_classes(self) -> Iterator[tuple[str, SpecClassInfo]]:
        for module, summary in self.modules.items():
            for spec in summary.spec_classes:
                yield module, spec

    def spec_class(self, name: str) -> tuple[str, SpecClassInfo] | None:
        """Find a spec class by bare name anywhere in the project."""
        tail = name.rsplit(".", 1)[-1]
        for module, spec in self.spec_classes():
            if spec.name == tail:
                return module, spec
        return None

    # -- name resolution ----------------------------------------------------

    def resolve_call(
        self, module: str, callee: str, class_name: str | None = None
    ) -> str | None:
        """Resolve a callee *as written* in ``module`` to a function key.

        Returns ``None`` for anything that cannot be pinned to a project
        function — builtins, third-party calls, methods on arbitrary
        expressions.  Unresolved calls contribute **no** taint, so every
        finding downstream of this is spelled out end to end.
        """
        if module not in self.modules:
            return None
        if callee.startswith("self."):
            rest = callee[len("self."):]
            if "." in rest or class_name is None:
                return None
            return self._resolve_method(module, class_name, rest, depth=0)

        parts = callee.split(".")
        local = self._top_level.get(module, {})
        if len(parts) == 1:
            if callee in local:
                return local[callee]
            if callee in self._classes.get(module, {}):
                return self._resolve_method(module, callee, "__init__", depth=0)
            target = self._imports.get(module, {}).get(callee)
            if target is not None:
                return self._resolve_dotted(target, depth=0)
            return None

        head, rest = parts[0], parts[1:]
        target = self._imports.get(module, {}).get(head)
        if target is not None:
            return self._resolve_dotted(".".join([target, *rest]), depth=0)
        if head in self._classes.get(module, {}) and len(rest) == 1:
            # ``SomeClass.method`` referenced without an import.
            return self._resolve_method(module, head, rest[0], depth=0)
        return None

    _MAX_DEPTH = 6

    def _resolve_dotted(self, dotted: str, depth: int) -> str | None:
        if depth > self._MAX_DEPTH:
            return None
        parts = dotted.split(".")
        for split in range(len(parts), 0, -1):
            prefix = ".".join(parts[:split])
            if prefix not in self.modules:
                continue
            rest = parts[split:]
            if not rest:
                return None  # a module object, not a callable
            if len(rest) == 1:
                name = rest[0]
                if name in self._top_level[prefix]:
                    return self._top_level[prefix][name]
                if name in self._classes[prefix]:
                    return self._resolve_method(prefix, name, "__init__", depth + 1)
                reexport = self._imports[prefix].get(name)
                if reexport is not None:
                    return self._resolve_dotted(reexport, depth + 1)
                return None
            if len(rest) == 2 and rest[0] in self._classes[prefix]:
                return self._resolve_method(prefix, rest[0], rest[1], depth + 1)
            reexport = self._imports[prefix].get(rest[0])
            if reexport is not None:
                return self._resolve_dotted(
                    ".".join([reexport, *rest[1:]]), depth + 1
                )
            return None
        return None

    def _resolve_method(
        self, module: str, class_name: str, method: str, depth: int
    ) -> str | None:
        if depth > self._MAX_DEPTH:
            return None
        methods = self._classes.get(module, {}).get(class_name)
        if methods is None:
            return None
        if method in methods:
            return f"{module}:{class_name}.{method}"
        # Walk declared bases (single level of name resolution each).
        for base in self._bases.get(module, {}).get(class_name, ()):
            base_tail = base.rsplit(".", 1)[-1]
            if base_tail in self._classes.get(module, {}):
                found = self._resolve_method(module, base_tail, method, depth + 1)
                if found is not None:
                    return found
                continue
            target = self._imports.get(module, {}).get(base.split(".")[0])
            if target is None:
                continue
            dotted = (
                ".".join([target, *base.split(".")[1:], method])
                if "." in base
                else f"{target}.{method}"
            )
            found = self._resolve_dotted(dotted, depth + 1)
            if found is not None:
                return found
        return None
