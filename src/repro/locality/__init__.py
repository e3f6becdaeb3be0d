"""Extension-locality characterization: ON heuristic, traces, analyses."""

from .analysis import (
    LocalityCurve,
    heuristic_accuracy,
    locality_curve,
    top_access_share,
)
from .occurrence import (
    OccurrenceTiming,
    edge_scores_from_vertex_scores,
    occurrence_numbers,
    timed_occurrence_numbers,
    top_fraction_vertices,
)
from .stride import AccessMix, StrideClassifier
from .trace import AccessCounter, IterationTrace

__all__ = [
    "LocalityCurve",
    "heuristic_accuracy",
    "locality_curve",
    "top_access_share",
    "OccurrenceTiming",
    "edge_scores_from_vertex_scores",
    "occurrence_numbers",
    "timed_occurrence_numbers",
    "top_fraction_vertices",
    "AccessMix",
    "StrideClassifier",
    "AccessCounter",
    "IterationTrace",
]
