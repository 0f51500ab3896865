"""Competitor algorithms from Section VI of the paper.

* :class:`~repro.baselines.linear_regression.LinearRegressionBaseline` --
  ordinary / non-negative least squares on rank-derived labels.
* :class:`~repro.baselines.ordinal_regression.OrdinalRegressionBaseline` --
  Srinivasan's LP ordinal regression, extended with tie and imprecision
  support (both can be switched off to recover the original technique).
* :class:`~repro.baselines.adarank.AdaRankBaseline` -- the AdaRank boosting
  algorithm adapted to tuple ranking with single-attribute weak rankers.
* :class:`~repro.baselines.sampling.SamplingBaseline` -- random weight
  vectors under the problem constraints within a time or sample budget.

Every baseline exposes ``solve(problem) -> SynthesisResult``.  Callers reach
them through the method registry (:func:`repro.get_method`, canonical names
``sampling`` / ``ordinal_regression`` / ``linear_regression`` / ``adarank``)
or the :class:`repro.RankHowClient` facade, which add option validation,
fingerprinting, caching and executor fan-out.  This package exports only the
options dataclasses, which are the wire format.
"""

from repro.baselines.adarank import AdaRankOptions
from repro.baselines.ordinal_regression import OrdinalRegressionOptions
from repro.baselines.sampling import SamplingOptions

__all__ = [
    "AdaRankOptions",
    "OrdinalRegressionOptions",
    "SamplingOptions",
]
