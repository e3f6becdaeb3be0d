"""summarize_module reads nested defs off source spans, exactly as a walk would.

The oracle kept here is the summarizer as it was before the span index:
each function finds its nested defs with its own ``ast.walk`` and
summarizes every one of them afresh, however many defs enclose it.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis import summary

ROOT = Path(__file__).resolve().parents[2]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Def in def in def, same-name nested defs shadowing each other, a class
#: inside a def, async defs and decorated nested defs.
STRESS = '''\
import os
import random
import time

from repro.runtime.cache import stable_hash


def outer(spec, pool):
    def mid(b):
        def inner(c):
            return time.time() + c

        def inner(c):
            return stable_hash(c)

        class Local:
            def method(self):
                def deep():
                    return os.getenv("X")
                return deep()

        return inner(b) + Local().method()

    async def fetch(x):
        return await x

    @functools.lru_cache(maxsize=None)
    def decorated(y):
        @staticmethod
        def inner(z):
            return random.random() + z
        return inner(y)

    def inner(q): return q

    pool.submit(mid, spec.seed)
    pool.submit(inner, spec.scale)
    return JobResult(seconds=mid(spec) + decorated(spec.x), ok=True)


class Holder:
    def cache_key(self):
        def helper():
            def helper():
                return self.a
            return helper()
        return stable_hash(helper())

    async def run(self, spec: "JobSpec"):
        async def nested_async():
            def sync_inside():
                return time.perf_counter()
            return sync_inside()
        stats.cycles = await nested_async()
        return stats


async def top_async(params):
    async def one(): return params["k"]
    async def two(): return await one()
    return await two()
'''


def walked_nested_defs(defs):
    """Each def's nested defs from its own ``ast.walk``, as before."""
    out = {}
    for node in defs:
        inner = [
            sub
            for sub in ast.walk(node)
            if sub is not node and isinstance(sub, DEFS)
        ]
        if inner:
            out[id(node)] = inner
    return out


def summarize(source):
    tree = ast.parse(source)
    return summary.summarize_module(tree, tuple(ast.walk(tree)))


def oracle(source, monkeypatch):
    real = summary._summarize_function

    def unmemoized(node, class_name, imports, nested_defs, memo):
        return real(node, class_name, imports, nested_defs, {})

    with monkeypatch.context() as patch:
        patch.setattr(summary, "_nested_defs", walked_nested_defs)
        patch.setattr(summary, "_summarize_function", unmemoized)
        return summarize(source)


SOURCES = sorted(
    path.relative_to(ROOT).as_posix()
    for base in ("src/repro", "tests/analysis/fixtures")
    for path in (ROOT / base).rglob("*.py")
)


@pytest.mark.parametrize("relpath", SOURCES)
def test_summary_matches_walk_oracle(relpath, monkeypatch):
    source = (ROOT / relpath).read_text(encoding="utf-8")
    assert summarize(source) == oracle(source, monkeypatch)


def test_nested_def_stress_module(monkeypatch):
    got, _ = summarize(STRESS)
    assert got == oracle(STRESS, monkeypatch)[0]
    by_name = {f.qualname: f for f in got.functions}
    # Every nested def at any depth, once per name (the last one walked
    # wins), and the nested taint folded into the enclosing summary.
    assert by_name["outer"].nested == (
        "decorated", "deep", "fetch", "inner", "method", "mid",
    )
    assert by_name["Holder.cache_key"].nested == ("helper",)
    assert by_name["top_async"].nested == ("one", "two")
    assert any(s.kind == "result_field" for s in by_name["outer"].sinks)
    assert any(s.kind == "stats_field" for s in by_name["Holder.run"].sinks)


def test_nested_defs_index_covers_every_depth():
    tree = ast.parse(STRESS)
    defs = [node for node in ast.walk(tree) if isinstance(node, DEFS)]
    assert summary._nested_defs(defs) == walked_nested_defs(defs)
