"""Ablations of the paper's design choices.

Section 1.2 motivates the assignment rule with the book graph: all
triangles share one edge, so "one cannot estimate T by computing
``sum_{e in R} t_e`` for a small R" - the per-edge triangle counts have
maximal variance.  The ablation here makes that argument measurable:

* :func:`run_single_estimate_third_split` is Algorithm 2 with the
  assignment rule ablated - a discovered triangle is credited ``1/3``
  from whichever edge found it (the natural "no-rule" unbiased estimator,
  the same split the MVV-style baseline uses).  Its estimate remains
  unbiased, but its variance carries ``max_e t_e`` instead of ``tau_max
  = O(kappa)``, which on the book graph is the difference between
  ``Theta(T)`` and ``Theta(1)``.

Benchmark E11 (``benchmarks/bench_ablation.py``) runs both variants on the
book graph (worst case) and the friendship graph (control; every
``t_e = 1``, so the rule should not matter) and reports the empirical
relative variances side by side.

:func:`run_single_estimate_exact_assigner` is the second ablation axis:
Algorithm 2 driven by the ground-truth min-``t_e`` rule, isolating the
sampling error of Algorithm 2 from the estimation error of Algorithm 3.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional

from ..graph.adjacency import Graph
from ..streams.base import EdgeStream
from ..streams.space import SpaceMeter
from .assignment import AssignHook, exact_assignment, unassigned
from .estimator import SinglePassStackResult, run_single_estimate
from .params import ParameterPlan


def run_single_estimate_third_split(
    stream: EdgeStream,
    plan: ParameterPlan,
    rng: random.Random,
    meter: Optional[SpaceMeter] = None,
) -> SinglePassStackResult:
    """Algorithm 2 with the assignment rule ablated (1/3-credit split).

    Identical sampling pipeline (passes 1-4); every discovered triangle
    contributes ``1/3`` regardless of which edge found it, and passes 5-6
    are skipped entirely.  Unbiased (each triangle is reachable from all
    three of its edges), but the variance inherits ``max_e t_e``.
    """
    # A hook that leaves every triangle unassigned skips passes 5-6; the
    # run still records wedges_closed (every triangle found), from which
    # the 1/3-split estimate is reconstructed exactly.
    result = run_single_estimate(stream, plan, rng, meter=meter, assign=unassigned)
    m = plan.num_edges
    y = (result.wedges_closed / result.ell) / 3.0
    return dataclasses.replace(
        result,
        estimate=(m / plan.r) * result.d_r * y,
        assigned_hits=result.wedges_closed,
    )


def run_single_estimate_exact_assigner(
    stream: EdgeStream,
    plan: ParameterPlan,
    rng: random.Random,
    graph: Graph,
    meter: Optional[SpaceMeter] = None,
    *,
    hook: Optional[AssignHook] = None,
) -> SinglePassStackResult:
    """Algorithm 2 driven by the ground-truth min-``t_e`` assignment.

    Isolates Algorithm 2's sampling error from Algorithm 3's estimation
    error; used by the E11 ablation and by unbiasedness tests.  ``hook``
    is ``exact_assignment(graph)`` built by a caller that runs many
    estimates on one graph; without it the hook is built here, per run.
    """
    if hook is None:
        hook = exact_assignment(graph)
    return run_single_estimate(stream, plan, rng, meter=meter, assign=hook)
