"""Selectivity estimation over the StorageBackend statistics surface.

The raw count collector, :class:`repro.backend.stats.DocumentStatistics`,
is physical-layer code: modules under ``stats/`` reach its counts only
through the :class:`~repro.backend.base.StorageBackend` seam.
"""

from repro.stats.selectivity import SelectivityEstimator

__all__ = ["SelectivityEstimator"]
