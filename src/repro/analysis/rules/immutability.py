"""Spec-immutability rules (GRM3xx).

A :class:`~repro.runtime.spec.JobSpec` is a content-address: mutating one
after construction (or making spec-like dataclasses mutable at all) breaks
the cache's core assumption that equal specs mean equal results.

* ``GRM301`` — a dataclass whose name ends in ``Spec``/``Result``/
  ``Config``/``Params``/``Overheads`` must declare ``frozen=True``.
  Those suffixes are this repository's naming contract for declarative
  value objects (``JobSpec``, ``JobResult``, ``GramerConfig``,
  ``EnergyParams``, ``SystemOverheads``, ...).
* ``GRM302`` — attribute assignment on a variable conventionally bound to
  a spec/config object (``spec``, ``config``, ``cfg``, ``result``, ...).
  Use :func:`dataclasses.replace` to derive modified copies.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis._ast_util import dotted_name
from repro.analysis.core import Finding, ModuleContext, rule

_FROZEN_SUFFIXES = ("Spec", "Result", "Config", "Params", "Overheads")
_DATACLASS_NAMES = {"dataclass", "dataclasses.dataclass"}
_SPEC_LIKE_NAMES = {
    "spec",
    "jobspec",
    "job_spec",
    "result",
    "job_result",
    "config",
    "cfg",
    "energy_params",
    "overheads",
}


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | ast.Call | None:
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            if dotted_name(decorator.func) in _DATACLASS_NAMES:
                return decorator
        elif dotted_name(decorator) in _DATACLASS_NAMES:
            return decorator
    return None


def _is_frozen(decorator: ast.expr | ast.Call) -> bool:
    if not isinstance(decorator, ast.Call):
        return False
    for keyword in decorator.keywords:
        if keyword.arg == "frozen":
            return (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            )
    return False


@rule(
    "GRM301",
    "immutability",
    "spec-like dataclass (Spec/Result/Config/Params suffix) not frozen",
)
def unfrozen_spec_dataclass(context: ModuleContext) -> Iterator[Finding]:
    for node in context.of(ast.ClassDef):
        if not node.name.endswith(_FROZEN_SUFFIXES):
            continue
        decorator = _dataclass_decorator(node)
        if decorator is None:
            continue
        if not _is_frozen(decorator):
            yield context.finding(
                node,
                "GRM301",
                f"dataclass `{node.name}` names a declarative value object "
                "but is not frozen=True; mutable specs corrupt "
                "content-addressed cache keys",
            )


@rule(
    "GRM302",
    "immutability",
    "attribute assignment on a spec/config object after construction",
)
def spec_attribute_assignment(context: ModuleContext) -> Iterator[Finding]:
    for node in context.of(ast.Assign, ast.AugAssign, ast.AnnAssign):
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            base = target.value
            if (
                isinstance(base, ast.Name)
                and base.id.lower() in _SPEC_LIKE_NAMES
            ):
                yield context.finding(
                    node,
                    "GRM302",
                    f"assignment to `{base.id}.{target.attr}` mutates a "
                    "spec/config object after construction; build a copy "
                    "with dataclasses.replace(...) instead",
                )
