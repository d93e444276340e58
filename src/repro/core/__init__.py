"""The paper's primary contribution: degeneracy-aware triangle estimation.

Layout follows the paper:

* :mod:`~repro.core.params` - the parameter plan ``(r, ell, s)`` and the
  heavy/costly thresholds of Section 5, in both ``theory`` and ``practical``
  constant regimes;
* :mod:`~repro.core.oracle_model` - Section 4: the degree-oracle model and
  Algorithm 1 (``IdealEstimator``);
* :mod:`~repro.core.assignment` - Section 5.1: Algorithm 3
  (``IsAssigned`` / ``Assignment``) as a two-pass streaming procedure
  (run by :func:`~repro.core.parallel.streaming_assignment` alone), and
  the ``AssignHook`` seam that replaces it without a pass - sorted
  candidate triangle rows to assigned edge rows and a mask
  (:func:`~repro.core.assignment.exact_assignment`, the ideal rule);
* :mod:`~repro.core.estimator` - Section 5: Algorithm 2, the six-pass
  estimator;
* :mod:`~repro.core.driver` - the user-facing
  :class:`~repro.core.driver.TriangleCountEstimator`: unknown-``T``
  geometric guessing, median-of-repetitions, diagnostics;
* :mod:`~repro.core.exact_reference` - a store-everything exact one-pass
  counter used as ground truth and as the "no space bound" reference row.

One engine backs every pass: the chunked NumPy kernels of
:mod:`~repro.core.kernels`, which the pass executor of
:mod:`~repro.core.executor` runs on a thread per core (seed-for-seed
identical results at any count; see :mod:`~repro.core.engine` for the
knobs: chunk size, workers, round-window depth).
Passes are expressed as *stages* (:mod:`~repro.core.stages`) and rounds as
stage *programs* (:mod:`~repro.core.parallel`), which is what lets the
speculative driver (:mod:`~repro.core.speculate`) run several guessing
rounds through shared tape sweeps without perturbing a single bit of the result.
"""

from .engine import engine_overrides
from .params import ParameterPlan, PlanConstants
from .oracle_model import DegreeOracle, IdealEstimator, IdealEstimatorResult
from .assignment import AssignHook, exact_assignment
from .estimator import SinglePassStackResult, run_single_estimate
from .parallel import streaming_assignment
from .driver import (
    EstimateResult,
    EstimatorConfig,
    ResumeState,
    TriangleCountEstimator,
    resume_from,
)
from .exact_reference import ExactStreamingCounter
from .snapshot import Snapshot, SnapshotWriter, load_latest, read_snapshot

__all__ = [
    "ParameterPlan",
    "PlanConstants",
    "DegreeOracle",
    "IdealEstimator",
    "IdealEstimatorResult",
    "AssignHook",
    "exact_assignment",
    "streaming_assignment",
    "run_single_estimate",
    "SinglePassStackResult",
    "TriangleCountEstimator",
    "EstimatorConfig",
    "EstimateResult",
    "ExactStreamingCounter",
    "engine_overrides",
    "resume_from",
    "ResumeState",
    "Snapshot",
    "SnapshotWriter",
    "read_snapshot",
    "load_latest",
]
