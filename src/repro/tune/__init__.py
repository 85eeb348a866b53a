"""Cost-model-driven configuration search (DESIGN.md §3.4).

``repro.tune`` turns the closed-form swap path model into a first-class
vectorizable cost model and puts a search engine on top of it, replacing
the exhaustive grid sweeps the smart-console experiments used to run:

* :mod:`repro.tune.costmodel` — :class:`VectorCostModel` prices whole
  ``(local_pages, granularity, io_width)`` candidate batches as numpy
  arrays through the path model's one cost formula, bit-identical to
  the scalar model, with finite-difference sensitivity queries per knob;
* :mod:`repro.tune.search` — batch argmin over console lattices, hill
  climbing for 2-D threshold surfaces, and the ``TuneStats`` simulated-run
  ledger behind the ≥10×-fewer-runs gate (the exhaustive grid reference
  is a test oracle, ``tests/oracles.py``);
* :mod:`repro.tune.validate` — successive-halving replay validation of
  shortlisted candidates, content-addressed in the artifact cache.
"""

from repro.tune.costmodel import CostBatch, OBJECTIVES, VectorCostModel
from repro.tune.search import (
    Candidate,
    TuneStats,
    climb_lattice,
    select_config,
    slo_bisection,
)
from repro.tune.validate import VALIDATE_VERSION, ValidatedPoint, validate_shortlist

__all__ = [
    "CostBatch",
    "OBJECTIVES",
    "VectorCostModel",
    "Candidate",
    "TuneStats",
    "climb_lattice",
    "select_config",
    "slo_bisection",
    "VALIDATE_VERSION",
    "ValidatedPoint",
    "validate_shortlist",
]
