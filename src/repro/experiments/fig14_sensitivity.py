"""Fig. 14 — sensitivity to τ (high-priority share) and λ (Eq. 2 balance).

(a) τ from 1% to 50% on the four graphs that fit on-chip at τ = 50%
(Patents/YT/LJ are excluded for BRAM capacity, as in the paper);
performance normalised to τ = 50%.  The paper finds τ = 5% already reaches
72–92% of the ideal.
(b) λ from 0.5 to 8 on all graphs, normalised to λ = 1; the paper sees
only 0.91×–1.07× variation.
"""

from __future__ import annotations

from repro.runtime.executor import Executor

from .harness import format_table, normalized_rows, sweep
from .datasets import DATASET_ORDER

__all__ = [
    "run",
    "run_tau_sweep",
    "run_lambda_sweep",
    "render",
    "main",
    "TAUS",
    "LAMBDAS",
]

TAUS = (0.01, 0.02, 0.05, 0.10, 0.20, 0.50)
LAMBDAS = (0.5, 1.0, 2.0, 4.0, 8.0)
TAU_GRAPHS = ["citeseer", "p2p", "astro", "mico"]


def run_tau_sweep(
    scale: str = "small",
    app_name: str = "5-CF",
    graphs: list[str] | None = None,
    executor: Executor | None = None,
) -> list[dict]:
    """Per graph: cycles per τ, normalised to τ = 50%.

    Following §VI-D, the memory is sized so the τ = 50% point holds the
    whole graph (high = low = 50% of the data): ``total = 2 × τ × data``.
    """
    graphs = graphs if graphs is not None else list(TAU_GRAPHS)
    cells = sweep(
        scale, app_name, graphs, "tau", TAUS, executor, memory_fraction=2
    )
    return normalized_rows(cells, 0.50, "normalized")


def run_lambda_sweep(
    scale: str = "small",
    app_name: str = "5-CF",
    graphs: list[str] | None = None,
    executor: Executor | None = None,
) -> list[dict]:
    """Per graph: cycles per λ, normalised to λ = 1."""
    graphs = graphs if graphs is not None else list(DATASET_ORDER)
    cells = sweep(scale, app_name, graphs, "lam", LAMBDAS, executor)
    return normalized_rows(cells, 1.0, "normalized")


def run(
    scale: str = "small", executor: Executor | None = None
) -> dict[str, list[dict]]:
    """Both panels: the ``tau`` sweep (a) and the ``lambda`` sweep (b)."""
    return {
        "tau": run_tau_sweep(scale, executor=executor),
        "lambda": run_lambda_sweep(scale, executor=executor),
    }


def render(data: dict[str, list[dict]]) -> str:
    """Format :func:`run`'s result as both panels of Fig. 14."""
    tau_table = format_table(
        ["Graph"] + [f"tau={t:.0%}" for t in TAUS],
        [
            [r["graph"]]
            + [f"{r['normalized'][t]:.2f}" for t in TAUS]
            for r in data["tau"]
        ],
    )
    lam_table = format_table(
        ["Graph"] + [f"lambda={lam}" for lam in LAMBDAS],
        [
            [r["graph"]]
            + [f"{r['normalized'][lam]:.2f}" for lam in LAMBDAS]
            for r in data["lambda"]
        ],
    )
    return (
        "Fig. 14 (a) performance vs tau, normalised to tau=50% (5-CF)\n"
        + tau_table
        + "\n\nFig. 14 (b) performance vs lambda, normalised to lambda=1\n"
        + lam_table
    )


def main(scale: str = "small") -> str:
    """Run and render both panels of Fig. 14."""
    return render(run(scale))


if __name__ == "__main__":
    print(main())
