"""Single-run execution: one algorithm, one graph, one seed, one report.

The runner owns the repetitive glue every experiment needs: fix a stream
order from a seed, time the run, pull the exact ``T`` from the graph
substrate, and compute the relative error.  Algorithms never see the graph;
the graph is used only for the stream order, the exact answer, and instance
parameters for provisioning.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, Optional

from ..baselines.base import BaselineEstimator
from ..baselines.registry import InstanceParameters, make_baseline
from ..core.driver import EstimatorConfig, TriangleCountEstimator
from ..graph.adjacency import Graph
from ..graph.triangles import count_triangles
from ..streams.memory import InMemoryEdgeStream
from ..streams.transforms import shuffled


@dataclass(frozen=True)
class RunReport:
    """Everything an experiment table needs about one run."""

    algorithm: str
    workload: str
    estimate: float
    exact: int
    passes_used: int
    space_words_peak: int
    wall_seconds: float
    extras: Dict[str, float]

    @property
    def relative_error(self) -> float:
        """Signed relative error ``(estimate - T) / T`` (inf when T = 0 and
        the estimate is non-zero; 0 when both are zero)."""
        if self.exact == 0:
            return 0.0 if self.estimate == 0 else float("inf")
        return (self.estimate - self.exact) / self.exact

    @property
    def abs_relative_error(self) -> float:
        """Magnitude of :attr:`relative_error`."""
        err = self.relative_error
        return abs(err)


def _stream_for(graph: Graph, seed: int) -> InMemoryEdgeStream:
    order_rng = random.Random(seed ^ 0x5EED)
    return InMemoryEdgeStream.from_graph(graph, shuffled(graph, order_rng))


def run_paper_estimator_on_graph(
    graph: Graph,
    kappa: int,
    seed: int = 0,
    workload: str = "",
    config: Optional[EstimatorConfig] = None,
    exact: Optional[int] = None,
) -> RunReport:
    """Run the paper's estimator on ``graph`` with the promise ``kappa``.

    ``config`` defaults to ``EstimatorConfig(seed=seed)``; pass one to
    select engine, window-depth or durable-snapshot settings (see
    :class:`EstimatorConfig`).  Pass ``exact`` to skip the (possibly
    expensive) ground-truth count when the caller already knows it.
    """
    if config is None:
        config = EstimatorConfig(seed=seed)
    stream = _stream_for(graph, seed)
    truth = exact if exact is not None else count_triangles(graph)
    start = time.perf_counter()
    result = TriangleCountEstimator(config).estimate(stream, kappa=kappa)
    elapsed = time.perf_counter() - start
    return RunReport(
        algorithm="paper",
        workload=workload,
        estimate=result.estimate,
        exact=truth,
        passes_used=result.passes_total,
        space_words_peak=result.space_words_peak,
        wall_seconds=elapsed,
        extras={
            "rounds": float(len(result.rounds)),
            "sweeps": float(result.sweeps_total),
            "sweeps_wasted": float(result.sweeps_wasted),
        },
    )


def run_paper_estimator_on_file(
    path,
    kappa: int,
    seed: int = 0,
    workload: str = "",
    config: Optional[EstimatorConfig] = None,
    exact: Optional[int] = None,
) -> RunReport:
    """Run the paper's estimator on an edge-list *file* in either format.

    The format is auto-detected by magic bytes
    (:func:`repro.streams.tape.open_edge_stream`): a binary ``.etape``
    tape streams through its zero-copy mapping, and a text edge list is
    parsed once into a temporary tape that every sweep maps - with
    bit-identical estimates either way.  Unlike
    :func:`run_paper_estimator_on_graph` the stream order is the file's
    own edge order (files already fix an order; re-shuffling would
    destroy the text/tape replay equivalence).  ``config`` defaults as
    there; pass ``exact`` to skip re-reading the file for the ground-truth
    count.
    """
    from ..io.edgelist import read_edgelist
    from ..streams.tape import open_edge_stream

    if config is None:
        config = EstimatorConfig(seed=seed)
    stream = open_edge_stream(path)
    truth = exact if exact is not None else count_triangles(read_edgelist(path))
    start = time.perf_counter()
    result = TriangleCountEstimator(config).estimate(stream, kappa=kappa)
    elapsed = time.perf_counter() - start
    return RunReport(
        algorithm="paper",
        workload=workload or str(path),
        estimate=result.estimate,
        exact=truth,
        passes_used=result.passes_total,
        space_words_peak=result.space_words_peak,
        wall_seconds=elapsed,
        extras={
            "rounds": float(len(result.rounds)),
            "sweeps": float(result.sweeps_total),
            "sweeps_wasted": float(result.sweeps_wasted),
        },
    )


def run_baseline_on_graph(
    name: str,
    graph: Graph,
    seed: int = 0,
    workload: str = "",
    epsilon: float = 0.3,
    t_hint: Optional[float] = None,
    exact: Optional[int] = None,
) -> RunReport:
    """Run registered baseline ``name`` on ``graph`` at matched accuracy.

    The baseline is provisioned from its own Table 1 formula at the
    instance parameters (``t_hint`` defaults to the exact count - the same
    promise the paper algorithm's accepted round enjoys).
    """
    truth = exact if exact is not None else count_triangles(graph)
    hint = t_hint if t_hint is not None else max(1.0, float(truth))
    params = InstanceParameters(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        t_hint=hint,
        epsilon=epsilon,
    )
    estimator: BaselineEstimator = make_baseline(name, params, random.Random(seed))
    stream = _stream_for(graph, seed)
    start = time.perf_counter()
    result = estimator.estimate(stream)
    elapsed = time.perf_counter() - start
    return RunReport(
        algorithm=name,
        workload=workload,
        estimate=result.estimate,
        exact=truth,
        passes_used=result.passes_used,
        space_words_peak=result.space_words_peak,
        wall_seconds=elapsed,
        extras=dict(result.extras),
    )
