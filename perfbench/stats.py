"""Summaries across runs and the verdict rule of ``run.py --compare``."""

from __future__ import annotations

import statistics

__all__ = ["summarize", "verdict"]


def summarize(values: list[float]) -> dict[str, float]:
    """Median, quartiles and quartile spread (IQR / median) of runs.

    Quartiles are ``statistics.quantiles(values, n=4)``; with fewer than
    two runs both quartiles equal the single value.
    """
    if not values:
        raise ValueError("summary of no runs")
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else
                                               float("inf"))
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "runs": len(values)}


def verdict(
    base: list[float],
    new: list[float],
    better: str,
    bound: float | None,
) -> tuple[str, float]:
    """``better`` / ``worse`` / ``unchanged`` / ``unresolved`` for one
    metric, and the signed change of ``new``'s median (positive = worse).

    When both sides' spreads are within the bound, the medians decide:
    a move by more than the bound is better or worse, a smaller one is
    unchanged. A metric whose spread is wider than its bound, or that
    has no bound (per-layer), is unresolved unless every run of one side
    beats every run of the other; runs that all read the same are
    unchanged.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    change = sign * (mn - mb) / abs(mb) if mb else 0.0
    spread = max(summarize(base)["spread"], summarize(new)["spread"])
    if bound is not None and spread <= bound:
        if change > bound:
            return "worse", change
        if change < -bound:
            return "better", change
        return "unchanged", change
    # sign * x is "lower is better" for both directions
    if max(sign * v for v in new) < min(sign * v for v in base):
        return "better", change
    if max(sign * v for v in base) < min(sign * v for v in new):
        return "worse", change
    if len(set(base) | set(new)) == 1:
        return "unchanged", change
    return "unresolved", change
