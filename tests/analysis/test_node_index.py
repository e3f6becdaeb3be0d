"""``ModuleContext.of`` answers exactly what a filtered ``ast.walk`` would.

The module rules and the fact scan read their nodes off the context's
typed node index instead of walking the tree.  For every module of the
package, of the analysis fixtures and of the benchmark's frozen corpus,
each query (one kind, or the kind sets the scan and rules ask for) must
return the same nodes in the same order as ``ast.walk`` filtered by
exact type.  The context leaves (``Load``/``Store``/``Del``) are the one
deliberate gap: the index skips them.
"""

import ast
import tarfile
from pathlib import Path

import pytest

from repro.analysis.core import _STATEMENT_KINDS, ModuleContext
from repro.analysis.summary import SCAN_KINDS

ROOT = Path(__file__).resolve().parents[2]

_CONTEXT_KINDS = (ast.Load, ast.Store, ast.Del)

#: The multi-kind queries of the fact scan, the suppression scanner and
#: the module rules (GRM203's scope finder, GRM302, GRM401, GRM702).
QUERIES = [
    SCAN_KINDS,
    _STATEMENT_KINDS,
    (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef, ast.Call),
    (ast.Assign, ast.AugAssign, ast.AnnAssign),
    (ast.BinOp, ast.Compare),
    (ast.FunctionDef, ast.AsyncFunctionDef),
]


def _modules(root: Path) -> list[tuple[Path, str, ast.Module]]:
    out = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        try:
            out.append((path, source, ast.parse(source)))
        except SyntaxError:
            continue  # the GRM000 fixture
    return out


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("corpus")
    with tarfile.open(ROOT / "perfbench" / "corpus.tar.gz", "r:gz") as archive:
        archive.extractall(root, filter="data")
    return root


@pytest.mark.parametrize(
    "tree", ["src/repro", "tests/analysis/fixtures", "corpus"]
)
def test_index_matches_filtered_walk(tree, corpus):
    root = corpus if tree == "corpus" else ROOT / tree
    modules = _modules(root)
    assert modules
    for path, source, module in modules:
        context = ModuleContext(
            path=path, source=source, tree=module, relpath=path.as_posix()
        )
        walked = list(ast.walk(module))
        by_kind: dict[type, list[ast.AST]] = {}
        for node in walked:
            by_kind.setdefault(type(node), []).append(node)
        for kind, nodes in by_kind.items():
            expected = [] if kind in _CONTEXT_KINDS else nodes
            assert context.of(kind) == expected, (path, kind.__name__)
        for kinds in QUERIES:
            expected = [node for node in walked if type(node) in kinds]
            assert context.of(*kinds) == expected, (path, kinds)
