"""Units-hygiene rules (GRM4xx).

The models move quantities across four dimensions (time, energy, size,
frequency) and several scales (cycles vs. seconds vs. nanoseconds; joules
vs. nanojoules).  The repository's convention is to carry the unit in the
identifier suffix (``dram_latency`` is cycles, ``gramer_setup_s`` seconds,
``spm_access_nj`` nanojoules, ``entry_bytes`` bytes); these rules lint
against that convention:

* ``GRM401`` — addition, subtraction, or ordering comparison between
  identifiers carrying *different* unit suffixes (``x_cycles + y_s``,
  ``a_j < b_nj``).  Multiplication and division are conversions and stay
  legal; operands without a recognizable unit are ignored.
* ``GRM402`` — float ``==``/``!=`` on measured time/energy quantities.
  Modeled floats accumulate rounding; compare against zero (the exact
  N/A sentinel) or use a tolerance.

Rate-style names (anything containing ``_per_``) are treated as unitless:
their trailing token names the denominator, not the quantity.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, ModuleContext, rule

__all__ = ["unit_of"]

# identifier suffix -> (dimension, scale)
_UNITS = {
    "cycles": ("time", "cycles"),
    "ns": ("time", "ns"),
    "us": ("time", "us"),
    "ms": ("time", "ms"),
    "s": ("time", "s"),
    "seconds": ("time", "s"),
    "pj": ("energy", "pj"),
    "nj": ("energy", "nj"),
    "mj": ("energy", "mj"),
    "j": ("energy", "j"),
    "w": ("power", "w"),
    "bytes": ("size", "bytes"),
    "mhz": ("frequency", "mhz"),
    "hz": ("frequency", "hz"),
}
_MEASURED_DIMENSIONS = {"time", "energy"}


def unit_of(name: str | None) -> tuple[str, str] | None:
    """(dimension, scale) carried by an identifier's suffix, else ``None``."""
    if not name:
        return None
    lowered = name.lower()
    if "_per_" in lowered:
        return None  # a rate: the suffix names the denominator
    token = lowered.rsplit("_", 1)[-1]
    return _UNITS.get(token)


def _operand_unit(node: ast.expr) -> tuple[str, str] | None:
    """Unit of a direct Name/Attribute operand (anything else: unknown)."""
    if isinstance(node, ast.Name):
        return unit_of(node.id)
    if isinstance(node, ast.Attribute):
        return unit_of(node.attr)
    return None


def _operand_label(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return "<expr>"


def _is_zero_literal(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and node.value == 0
    )


@rule(
    "GRM401",
    "units",
    "additive arithmetic or ordering across mismatched unit suffixes",
)
def mixed_unit_arithmetic(context: ModuleContext) -> Iterator[Finding]:
    for node in context.nodes:
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Add, ast.Sub)
        ):
            pairs = [(node.left, node.right)]
        elif isinstance(node, ast.Compare) and len(node.ops) == 1 and isinstance(
            node.ops[0], (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
        ):
            pairs = [(node.left, node.comparators[0])]
        else:
            continue
        for left, right in pairs:
            left_unit = _operand_unit(left)
            right_unit = _operand_unit(right)
            if left_unit is None or right_unit is None:
                continue
            if left_unit != right_unit:
                yield context.finding(
                    node,
                    "GRM401",
                    f"`{_operand_label(left)}` is {left_unit[1]} "
                    f"({left_unit[0]}) but `{_operand_label(right)}` is "
                    f"{right_unit[1]} ({right_unit[0]}); convert explicitly "
                    "before combining",
                )


@rule(
    "GRM402",
    "units",
    "float equality on a measured time/energy quantity",
)
def float_equality_on_measured(context: ModuleContext) -> Iterator[Finding]:
    for node in context.nodes:
        if not (
            isinstance(node, ast.Compare)
            and len(node.ops) == 1
            and isinstance(node.ops[0], (ast.Eq, ast.NotEq))
        ):
            continue
        left, right = node.left, node.comparators[0]
        left_unit = _operand_unit(left)
        right_unit = _operand_unit(right)
        if left_unit and left_unit[0] in _MEASURED_DIMENSIONS:
            measured_side, other = left, right
        elif right_unit and right_unit[0] in _MEASURED_DIMENSIONS:
            measured_side, other = right, left
        else:
            continue
        other_unit = _operand_unit(other)
        nonzero_float = (
            isinstance(other, ast.Constant)
            and isinstance(other.value, float)
            and other.value != 0.0
        )
        if other_unit is not None or nonzero_float:
            yield context.finding(
                node,
                "GRM402",
                f"exact equality on measured quantity "
                f"`{_operand_label(measured_side)}` — modeled floats carry "
                "rounding; compare with a tolerance (math.isclose) or "
                "against the exact-zero sentinel only",
            )
