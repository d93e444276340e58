"""Estimate serving: a daemon where concurrent jobs share tape sweeps.

The paper's estimator spends nearly all of its wall-clock in physical
tape sweeps, and the sweep machinery built for speculative round fusion
- owner-tagged shared sweeps, stage programs - generalizes directly from
"k speculative rounds of one estimate" to "k live rounds of independent
estimates".  This package is that generalization as a service:

* :mod:`repro.serve.scheduler` - the core: one
  :class:`~repro.serve.scheduler.SweepScheduler` per tape drives any
  number of live :func:`~repro.core.driver.estimate_program` generators
  in lockstep, merging their pending stage batches so one physical
  traversal serves every job's current stages;
* :mod:`repro.serve.registry` - tapes keyed by content fingerprint, so
  jobs naming different paths to identical bytes share a scheduler,
  and text inputs are converted once to a private tape on first touch;
* :mod:`repro.serve.cache` - served results keyed by
  ``(tape fingerprint, trajectory config hash, seed)`` under the
  snapshot module's config-hash discipline: a repeated request does
  zero sweeps;
* :mod:`repro.serve.protocol` - the JSON request/response vocabulary
  (shared by the unix-socket and localhost-HTTP transports) plus small
  blocking client helpers;
* :mod:`repro.serve.daemon` - the asyncio server behind the
  ``repro serve`` CLI verb.

Every served estimate is bit-identical - estimate, rounds trajectory,
``passes_total``, final root-RNG state - to a solo run with the same
seed and config; sharing changes only which physical traversal carried
the stages.
"""

from .cache import ResultCache
from .daemon import EstimateServer, serve_forever
from .jobs import Job, JobAccounting
from .registry import TapeRegistry
from .scheduler import SweepScheduler

__all__ = [
    "EstimateServer",
    "Job",
    "JobAccounting",
    "ResultCache",
    "SweepScheduler",
    "TapeRegistry",
    "serve_forever",
]
