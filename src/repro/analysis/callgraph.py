"""Project call graph: resolved edges plus reachability with witnesses.

Built once per project pass from the per-function
:class:`~repro.analysis.summary.CallSite` lists, with every callee run
through :meth:`ProjectAnalysis.resolve_call`.  Unresolvable calls simply
contribute no edge — the graph under-approximates, which is the right
direction for rules that must stay silent on the live tree unless they
can spell out a full chain.

:meth:`CallGraph.reachable` returns parent pointers, so a rule can
render the exact call path from a root (say ``GramerBackend.run``) to
the function where a field read or taint source lives.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .project import ProjectAnalysis
from .summary import CallSite

__all__ = ["CallGraph", "Reached"]


@dataclass(frozen=True)
class Reached:
    """How a function was reached: its BFS parent and the call site used."""

    parent: str | None
    site: CallSite | None


@dataclass
class CallGraph:
    """Resolved call edges over a :class:`ProjectAnalysis`."""

    #: caller key -> callee key -> first call site that produced the edge.
    edges: dict[str, dict[str, CallSite]] = field(default_factory=dict)
    #: caller key -> callee *as written* -> resolved key (taint expansion
    #: needs the textual form because atoms carry ``call:<as written>``).
    resolved: dict[str, dict[str, str]] = field(default_factory=dict)

    @classmethod
    def build(cls, project: ProjectAnalysis) -> "CallGraph":
        graph = cls()
        for key, module, fn in project.functions():
            out_edges: dict[str, CallSite] = {}
            out_resolved: dict[str, str] = {}
            for site in fn.calls:
                target = project.resolve_call(
                    module, site.callee, class_name=fn.class_name
                )
                if target is None or target == key:
                    continue
                out_resolved[site.callee] = target
                if target not in out_edges:
                    out_edges[target] = site
            graph.edges[key] = out_edges
            graph.resolved[key] = out_resolved
        return graph

    def resolve_atom(self, key: str, callee_text: str) -> str | None:
        """Resolved target of a ``call:<text>`` atom recorded in ``key``."""
        return self.resolved.get(key, {}).get(callee_text)

    def reachable(self, roots: list[str]) -> dict[str, Reached]:
        """BFS closure from ``roots`` with parent pointers for evidence."""
        out: dict[str, Reached] = {}
        queue: deque[str] = deque()
        for root in roots:
            if root not in out:
                out[root] = Reached(parent=None, site=None)
                queue.append(root)
        while queue:
            current = queue.popleft()
            for callee, site in self.edges.get(current, {}).items():
                if callee not in out:
                    out[callee] = Reached(parent=current, site=site)
                    queue.append(callee)
        return out

    def chain(self, reached: dict[str, Reached], key: str) -> list[str]:
        """The call path root -> ... -> ``key`` as a list of function keys."""
        path = [key]
        seen = {key}
        while True:
            parent = reached[path[-1]].parent
            if parent is None or parent in seen:
                break
            path.append(parent)
            seen.add(parent)
        path.reverse()
        return path
