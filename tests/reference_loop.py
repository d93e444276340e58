"""A minimal sequential reference of the guessing loop, for parity tests.

The paper's completion of Theorem 1.2 written out as plainly as possible
over :func:`~repro.core.parallel.run_parallel_estimates`: start from the
Corollary 3.2 bound ``2 m kappa``, run the round's repetitions, accept a
median of at least half the guess, otherwise halve and repeat.  No
speculation, no retry or degradation, no snapshots, no stage programs -
so the library's one guessing loop (``estimate_program``) can be checked
against an independent implementation rather than against itself.

Derives its generators exactly as the library does (``make_rng(seed)``
and ``spawn(root, "round{i}/rep{j}")``), so the two agree bit for bit:
estimate, rounds trajectory (every run's diagnostics included),
``passes_total``, ``space_words_peak`` and the final root-RNG state.  The
sweep total agrees too when the run under test does not speculate; a
speculating run commits the same rounds in fewer sweeps.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.core.driver import EstimateResult, EstimatorConfig, GuessRound
from repro.core.parallel import run_parallel_estimates
from repro.core.params import ParameterPlan
from repro.rng import make_rng, spawn
from repro.sampling.combine import median
from repro.streams.space import SpaceMeter


def reference_estimate(stream, kappa: int, config: EstimatorConfig) -> Tuple[EstimateResult, tuple]:
    """Run the loop; returns ``(result, final root-RNG state)``."""
    root = make_rng(config.seed)
    m = len(stream)
    if m == 0:
        return EstimateResult(0.0, [], 0, 0, None), root.getstate()
    n = stream.stats().num_vertices_upper
    upper = 2.0 * m * kappa
    if config.t_hint is not None:
        guesses = [float(config.t_hint)]
    else:
        count = config.max_rounds or max(1, math.ceil(math.log2(upper)) + 2)
        guesses = [upper / 2.0**k for k in range(count)]

    rounds: List[GuessRound] = []
    space = passes = 0
    plan = None
    estimate = 0.0
    accepted = False
    for i, t_guess in enumerate(guesses):
        if t_guess < 1.0 and config.t_hint is None:
            break
        plan = ParameterPlan.build(
            n, m, kappa, t_guess, config.epsilon, config.mode, config.constants
        )
        rngs = [spawn(root, f"round{i}/rep{rep}") for rep in range(config.repetitions)]
        # One six-pass round for all repetitions, one meter.
        meter = SpaceMeter(budget_words=config.space_budget_words)
        runs = run_parallel_estimates(stream, plan, rngs, meter)
        space = max(space, meter.peak_words)
        passes += runs[0].passes_used
        estimate = median([run.estimate for run in runs])
        accepted = config.t_hint is not None or estimate >= t_guess / 2.0
        rounds.append(GuessRound(t_guess, runs, estimate, accepted))
        if accepted:
            break
    if not accepted and estimate < 1.0:
        estimate = 0.0
    result = EstimateResult(
        estimate=float(estimate),
        rounds=rounds,
        space_words_peak=space,
        passes_total=passes,
        final_plan=plan,
        sweeps_total=passes,  # one private sweep per logical pass
    )
    return result, root.getstate()


def assert_matches_reference(result, root_state, reference, speculated: bool = False) -> None:
    """The parity contract between a library run and the reference."""
    ref_result, ref_root = reference
    assert result.estimate == ref_result.estimate
    assert result.rounds == ref_result.rounds
    assert result.passes_total == ref_result.passes_total
    assert result.space_words_peak == ref_result.space_words_peak
    assert result.final_plan == ref_result.final_plan
    assert root_state == ref_root
    if speculated:
        # Shared sweeps commit the same rounds in fewer traversals.
        assert result.sweeps_total <= ref_result.sweeps_total
    else:
        assert result.sweeps_total == ref_result.sweeps_total
