"""Scaling analysis: turn (k, time) sweeps into the shape claims of Table 1.

The paper reports asymptotic bounds; the reproduction checks *shape*: measured
time divided by the claimed bound should stay (roughly) constant as ``k`` grows,
and a log–log power-law fit should recover an exponent close to the claimed one
(1 for ``O(k)``, slightly above 1 for ``O(k log k)``, and noticeably above 1 for
``O(kΔ)``-type baselines on high-degree families).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

__all__ = ["ScalingFit", "fit_power_law", "fit_linear_ratio", "normalized_ratios"]


@dataclass(frozen=True)
class ScalingFit:
    """Result of a log–log least-squares fit ``time ≈ c · k^exponent``."""

    exponent: float
    constant: float
    r_squared: float

    def describe(self) -> str:
        return (
            f"time ≈ {self.constant:.3g} · k^{self.exponent:.3f} "
            f"(R²={self.r_squared:.4f})"
        )


def fit_power_law(ks: Sequence[float], times: Sequence[float]) -> ScalingFit:
    """Least-squares fit of ``log time`` against ``log k``.

    Raises :class:`statistics.StatisticsError` (a ``ValueError``) when every
    ``k`` is the same: no line through one x value has a defined slope.
    """
    if len(ks) != len(times) or len(ks) < 2:
        raise ValueError("need at least two (k, time) points")
    x = [math.log(k) for k in ks]
    y = [math.log(t) for t in times]
    slope, intercept = statistics.linear_regression(x, y)
    mean_y = statistics.fmean(y)
    ss_res = sum((yi - (slope * xi + intercept)) ** 2 for xi, yi in zip(x, y))
    ss_tot = sum((yi - mean_y) ** 2 for yi in y)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ScalingFit(exponent=slope, constant=math.exp(intercept), r_squared=r2)


def normalized_ratios(
    ks: Sequence[float],
    times: Sequence[float],
    bound: Callable[[float], float],
) -> List[float]:
    """``time / bound(k)`` for every sample -- constant-ish iff the bound is tight."""
    if len(ks) != len(times):
        raise ValueError("ks and times must have the same length")
    return [t / max(1.0, bound(k)) for k, t in zip(ks, times)]


def fit_linear_ratio(
    ks: Sequence[float],
    times: Sequence[float],
    bound: Callable[[float], float],
) -> Tuple[float, float]:
    """Return (max ratio, spread) of ``time / bound(k)`` over the sweep.

    ``spread`` is the max ratio divided by the min ratio; a spread close to 1
    means the measured times scale like the claimed bound across the sweep
    (the constant is not drifting with ``k``).
    """
    ratios = normalized_ratios(ks, times, bound)
    return max(ratios), max(ratios) / min(ratios)
