"""Speculative round fusion: commit/discard protocol and accounting.

The randomized cross-mode matrix (``test_parity_matrix.py``) pins
bit-identity wholesale; these tests pin the *mechanics*: the lockstep
window program against the sequential runner, the window's sweep count,
the driver's discard-and-rewind path, the
acceptance-imminent speculation throttle, and the knob plumbing from
environment to config.
"""

from __future__ import annotations

import contextlib
import random

import pytest

from reference_passes import reference_engine
from repro.core import engine, executor
from repro.core.driver import EstimatorConfig, TriangleCountEstimator
from repro.core.estimator import PASS_BUDGET_PER_ROUND
from repro.core.parallel import run_parallel_estimates
from repro.core.params import ParameterPlan
from repro.core.speculate import PRIMARY, SPECULATIVE, _owner_tags, window_program
from repro.core.stages import sweep_tagged_stages
from repro.errors import ParameterError, StreamError
from repro.generators import barabasi_albert_graph, wheel_graph
from repro.graph import count_triangles, degeneracy
from repro.streams import InMemoryEdgeStream, PassScheduler
from repro.streams.space import SpaceMeter
from repro.streams.transforms import shuffled


def _stream(graph, seed=0):
    return InMemoryEdgeStream.from_graph(graph, shuffled(graph, random.Random(seed)))


def _plan(graph, t_guess, kappa=None):
    kappa = kappa if kappa is not None else max(1, degeneracy(graph))
    return ParameterPlan.build(
        graph.num_vertices, graph.num_edges, kappa, float(t_guess), 0.25
    )


def _run_window(stream, plans, rng_lists, meters):
    """Drive ``window_program`` the way the driver does: one shared sweep
    per yielded batch on a scheduler budgeted at six passes per round.

    Returns the per-round results and the scheduler (for its
    ``sweeps_used``).
    """
    scheduler = PassScheduler(stream, max_passes=PASS_BUDGET_PER_ROUND * len(plans))
    program = window_program(len(stream), plans, rng_lists, meters, _owner_tags(len(plans)))
    try:
        batch = next(program)
        while True:
            sweep_tagged_stages(scheduler, batch)
            batch = program.send(None)
    except StopIteration as stop:
        results = stop.value
    finally:
        program.close()
    return results, scheduler


class TestPairRunner:
    @pytest.mark.parametrize("mode,workers", [("python", 1), ("chunked", 1), ("chunked", 2)])
    def test_pair_results_bit_identical_to_solo_rounds(self, mode, workers):
        """``python`` runs every pass on the per-edge reference folds."""
        graph = barabasi_albert_graph(200, 4, random.Random(3))
        stream = _stream(graph)
        plan_a = _plan(graph, 4.0 * graph.num_edges)
        plan_b = _plan(graph, 2.0 * graph.num_edges)

        def rngs():
            return [random.Random(s) for s in (11, 12, 13)]

        passes = reference_engine() if mode == "python" else contextlib.nullcontext()
        with passes, engine.engine_overrides(chunk_size=64, workers=workers):
            solo_a = run_parallel_estimates(stream, plan_a, rngs())
            solo_b = run_parallel_estimates(stream, plan_b, rngs())
            (primary, speculative), scheduler = _run_window(
                stream, [plan_a, plan_b], [rngs(), rngs()], [SpaceMeter(), SpaceMeter()]
            )
        assert primary == solo_a
        assert speculative == solo_b
        # The pair's physical sweeps cover both rounds in the sweeps of
        # (at most) the larger round alone.
        sweeps = scheduler.sweeps_used
        assert sweeps <= max(solo_a[0].passes_used, solo_b[0].passes_used) + 2
        assert sweeps < solo_a[0].passes_used + solo_b[0].passes_used
        assert sweeps == max(primary[0].passes_used, speculative[0].passes_used)

    def test_pair_meters_match_solo_meters(self):
        graph = wheel_graph(150)
        stream = _stream(graph)
        plan_a = _plan(graph, 300.0)
        plan_b = _plan(graph, 150.0)
        with engine.engine_overrides(chunk_size=64, workers=1):
            meter_a_solo, meter_b_solo = SpaceMeter(), SpaceMeter()
            run_parallel_estimates(
                stream, plan_a, [random.Random(1)], meter=meter_a_solo
            )
            run_parallel_estimates(
                stream, plan_b, [random.Random(2)], meter=meter_b_solo
            )
            meter_a, meter_b = SpaceMeter(), SpaceMeter()
            _run_window(
                stream,
                [plan_a, plan_b],
                [[random.Random(1)], [random.Random(2)]],
                [meter_a, meter_b],
            )
        assert meter_a.peak_words == meter_a_solo.peak_words
        assert meter_b.peak_words == meter_b_solo.peak_words


class TestWindowRunner:
    """The k-deep generalization: one shared sweep set, ``k`` rounds."""

    @pytest.mark.parametrize("depth", [3, 4])
    def test_window_results_bit_identical_to_solo_rounds(self, depth):
        graph = barabasi_albert_graph(200, 4, random.Random(3))
        stream = _stream(graph)
        plans = [_plan(graph, 4.0 * graph.num_edges / (2.0 ** j)) for j in range(depth)]

        def rngs():
            return [random.Random(s) for s in (11, 12, 13)]

        with engine.engine_overrides(chunk_size=64, workers=1):
            solo = [run_parallel_estimates(stream, plan, rngs()) for plan in plans]
            results, scheduler = _run_window(
                stream, plans, [rngs() for _ in plans], [SpaceMeter() for _ in plans]
            )
        assert len(results) == depth
        for j in range(depth):
            assert results[j] == solo[j]
        # The window's physical sweeps cover every round in (at most) the
        # sweeps of the largest round alone, plus stragglers.
        assert scheduler.sweeps_used < sum(r[0].passes_used for r in solo)
        # The rule the guessing loop books a window's sweeps by: one
        # sweep per step of its longest round.
        assert scheduler.sweeps_used == max(r[0].passes_used for r in results)

    def test_window_pass_budget_scales_with_depth(self):
        graph = wheel_graph(100)
        stream = _stream(graph)
        plans = [_plan(graph, 400.0 / (2.0 ** j)) for j in range(4)]
        results, _ = _run_window(
            stream,
            plans,
            [[random.Random(j + 1)] for j in range(4)],
            [SpaceMeter() for _ in range(4)],
        )
        for j in range(4):
            assert results[j][0].passes_used <= 6

    def test_window_validates_alignment(self):
        graph = wheel_graph(20)
        stream = _stream(graph)
        plan = _plan(graph, 40.0)
        with pytest.raises(ValueError, match="align"):
            next(window_program(len(stream), [plan], [], [SpaceMeter()], [PRIMARY]))
        with pytest.raises(ValueError, match="at least one round"):
            next(window_program(len(stream), [], [], [], []))


def _first_discard_instance():
    """A (graph, kappa, seed) whose speculative run discards a round.

    Deterministic: seeds are fixed; the scan just documents that the case
    was found rather than hand-picking magic numbers silently.
    """
    for seed in range(12):
        for n in (80, 160, 240, 320):
            graph = barabasi_albert_graph(n, 4, random.Random(seed))
            stream = _stream(graph, seed)
            result = TriangleCountEstimator(
                EstimatorConfig(seed=seed, repetitions=3)
            ).estimate(stream, kappa=4)
            if result.passes_wasted:
                return graph, 4, seed
    raise AssertionError("no discard instance found in the scanned families")


@pytest.fixture
def traversals(monkeypatch):
    """Count the physical sweeps the executor starts (a sweep a fault
    aborts mid-way included)."""
    started = []
    real = executor._sweep

    def spy(scheduler, plans, chunk, workers):
        started.append(len(plans))
        return real(scheduler, plans, chunk, workers)

    monkeypatch.setattr(executor, "_sweep", spy)
    return started


class TestDriverCommitDiscard:
    def test_multi_round_commit_halves_sweeps(self):
        graph = barabasi_albert_graph(400, 5, random.Random(1))
        stream = _stream(graph)
        base = dict(seed=7, repetitions=3)
        sequential = TriangleCountEstimator(
            EstimatorConfig(speculate_depth=1, **base)
        ).estimate(stream, kappa=5)
        speculative = TriangleCountEstimator(
            EstimatorConfig(**base)
        ).estimate(stream, kappa=5)
        assert speculative.estimate == sequential.estimate
        assert len(speculative.rounds) == len(sequential.rounds) > 2
        assert speculative.passes_total == sequential.passes_total
        physical = speculative.sweeps_total + speculative.sweeps_wasted
        assert physical < sequential.sweeps_total

    def test_throttle_skips_speculation_when_acceptance_predicted(self):
        # The throttle's precondition is a *predictable* acceptance: the
        # round before the accepting one already had a median clearing the
        # accepting round's bar.  On such trajectories nothing may be
        # discarded - the final round must have run solo.
        checked = 0
        for seed in range(10):
            graph = barabasi_albert_graph(300, 5, random.Random(seed))
            stream = _stream(graph, seed)
            sequential = TriangleCountEstimator(
                EstimatorConfig(seed=seed, repetitions=3, speculate_depth=1)
            ).estimate(stream, kappa=5)
            if len(sequential.rounds) < 3 or not sequential.rounds[-1].accepted:
                continue
            predicted = (
                sequential.rounds[-2].median_estimate
                >= sequential.rounds[-1].t_guess / 2.0
            )
            if not predicted:
                continue
            speculative = TriangleCountEstimator(
                EstimatorConfig(seed=seed, repetitions=3)
            ).estimate(stream, kappa=5)
            assert speculative.estimate == sequential.estimate
            assert speculative.passes_wasted == 0, seed
            assert speculative.sweeps_wasted == 0, seed
            checked += 1
        assert checked > 0, "no predictable-acceptance trajectory in the scan"

    def test_surprise_acceptance_discards_and_stays_identical(self):
        graph, kappa, seed = _first_discard_instance()
        stream = _stream(graph, seed)
        base = dict(seed=seed, repetitions=3)
        sequential = TriangleCountEstimator(
            EstimatorConfig(speculate_depth=1, **base)
        ).estimate(stream, kappa=kappa)
        speculative = TriangleCountEstimator(
            EstimatorConfig(**base)
        ).estimate(stream, kappa=kappa)
        # The discarded round leaves no trace in the committed outcome...
        assert speculative.estimate == sequential.estimate
        assert [r.t_guess for r in speculative.rounds] == [
            r.t_guess for r in sequential.rounds
        ]
        assert speculative.passes_total == sequential.passes_total
        # ...but its executed work is booked as waste: in-sweep compute
        # only, since the accepting round ran all six passes and no
        # partner outlasts it.
        assert speculative.passes_wasted > 0
        assert speculative.sweeps_wasted == 0
        assert (
            speculative.sweeps_total + speculative.sweeps_wasted
            <= sequential.sweeps_total
        )

    @pytest.mark.parametrize("depth", [1, 4])
    def test_booked_sweeps_are_the_traversals_made(self, traversals, depth):
        # Each window books its own sweeps from the stages its rounds
        # rode; the booked total must be the traversals the run made,
        # with or without a discarded speculative suffix.
        graph, kappa, seed = _first_discard_instance()
        stream = _stream(graph, seed)
        traversals.clear()
        result = TriangleCountEstimator(
            EstimatorConfig(seed=seed, repetitions=3, speculate_depth=depth)
        ).estimate(stream, kappa=kappa)
        assert result.sweeps_total + result.sweeps_wasted == len(traversals)
        assert (result.passes_wasted > 0) == (depth > 1)
        # A discarded round never outlasts the accepting one.
        assert result.sweeps_wasted == 0

    def test_failed_attempt_sweeps_are_booked_wasted(self, traversals):
        graph = wheel_graph(120)
        stream = _stream(graph)
        base = dict(seed=3, repetitions=3, speculate_depth=1)
        clean = TriangleCountEstimator(EstimatorConfig(**base)).estimate(
            stream, kappa=3
        )
        traversals.clear()
        faulted = TriangleCountEstimator(
            EstimatorConfig(**base, faults="sweep.mid_stage@3")
        ).estimate(stream, kappa=3)
        assert faulted.estimate == clean.estimate
        assert faulted.sweeps_total == clean.sweeps_total
        # The aborted attempt's sweeps, the failing one included, are the
        # only waste; together they are every traversal made.
        assert faulted.sweeps_wasted > 0
        assert faulted.sweeps_total + faulted.sweeps_wasted == len(traversals)

    def test_speculation_disengages_under_space_budget(self):
        graph = wheel_graph(200)
        stream = _stream(graph)
        budget = 10_000_000  # generous: the run must succeed, sequentially
        result = TriangleCountEstimator(
            EstimatorConfig(
                seed=3, repetitions=3, space_budget_words=budget
            )
        ).estimate(stream, kappa=3)
        sequential = TriangleCountEstimator(
            EstimatorConfig(
                seed=3, repetitions=3, speculate_depth=1, space_budget_words=budget
            )
        ).estimate(stream, kappa=3)
        assert result.estimate == sequential.estimate
        assert result.sweeps_total == sequential.sweeps_total  # no pairing
        assert result.sweeps_wasted == 0

    @pytest.mark.parametrize("depth", [3, 4])
    def test_deep_windows_stay_identical_and_save_sweeps(self, depth):
        graph = barabasi_albert_graph(400, 5, random.Random(1))
        stream = _stream(graph)
        base = dict(seed=7, repetitions=3)
        sequential = TriangleCountEstimator(
            EstimatorConfig(speculate_depth=1, **base)
        ).estimate(stream, kappa=5)
        pair = TriangleCountEstimator(
            EstimatorConfig(speculate_depth=2, **base)
        ).estimate(stream, kappa=5)
        deep = TriangleCountEstimator(
            EstimatorConfig(speculate_depth=depth, **base)
        ).estimate(stream, kappa=5)
        assert deep.estimate == sequential.estimate
        assert [r.t_guess for r in deep.rounds] == [r.t_guess for r in sequential.rounds]
        assert [r.median_estimate for r in deep.rounds] == [
            r.median_estimate for r in sequential.rounds
        ]
        assert deep.passes_total == sequential.passes_total
        # Deeper windows commit the same rounds in fewer physical sweeps.
        deep_physical = deep.sweeps_total + deep.sweeps_wasted
        pair_physical = pair.sweeps_total + pair.sweeps_wasted
        assert deep_physical <= pair_physical < sequential.sweeps_total

    def test_depth_two_reproduces_the_pair_driver(self):
        # speculate_depth=2 must be today's round-pair driver bit-for-bit:
        # same committed outcome *and* same accounting split.
        graph = barabasi_albert_graph(300, 4, random.Random(2))
        stream = _stream(graph)
        base = dict(seed=11, repetitions=3)
        with engine.engine_overrides(speculate_depth=2):
            default = TriangleCountEstimator(EstimatorConfig(**base)).estimate(
                stream, kappa=4
            )
        explicit = TriangleCountEstimator(
            EstimatorConfig(speculate_depth=2, **base)
        ).estimate(stream, kappa=4)
        assert default.estimate == explicit.estimate
        assert default.sweeps_total == explicit.sweeps_total
        assert default.sweeps_wasted == explicit.sweeps_wasted
        assert default.passes_total == explicit.passes_total
        assert default.passes_wasted == explicit.passes_wasted

    def test_waste_cap_never_speculates_past_predicted_acceptance(self):
        # The expected-waste cap clips every window at the first upcoming
        # guess the previous median already clears.  On trajectories where
        # (a) the first, prediction-less window commits whole (at least
        # ``depth`` rejecting rounds before the acceptance) and (b) every
        # committed median clears the accepting round's bar, no window can
        # extend past the accepting round - nothing may be discarded.
        depth = 3
        checked = 0
        for seed, n, mdeg in ((1, 600, 6), (2, 500, 5), (6, 400, 4), (11, 300, 5)):
            graph = barabasi_albert_graph(n, mdeg, random.Random(seed))
            stream = _stream(graph, seed)
            sequential = TriangleCountEstimator(
                EstimatorConfig(seed=seed, repetitions=3, speculate_depth=1)
            ).estimate(stream, kappa=mdeg)
            rounds = sequential.rounds
            if len(rounds) < depth + 1 or not rounds[-1].accepted:
                continue
            final_bar = rounds[-1].t_guess / 2.0
            if not all(r.median_estimate >= final_bar for r in rounds[:-1]):
                continue
            deep = TriangleCountEstimator(
                EstimatorConfig(
                    seed=seed, repetitions=3, speculate_depth=depth
                )
            ).estimate(stream, kappa=mdeg)
            assert deep.estimate == sequential.estimate
            assert deep.passes_wasted == 0, seed
            assert deep.sweeps_wasted == 0, seed
            checked += 1
        assert checked > 0, "no qualifying trajectory in the scan"

    def test_t_hint_single_round_never_speculates(self):
        graph = wheel_graph(120)
        stream = _stream(graph)
        t = float(count_triangles(graph))
        result = TriangleCountEstimator(
            EstimatorConfig(seed=1, repetitions=3, t_hint=t)
        ).estimate(stream, kappa=3)
        assert len(result.rounds) == 1
        assert result.sweeps_wasted == 0
        assert result.passes_wasted == 0


class TestKnobPlumbing:
    def test_env_speculate_switch_is_rejected(self, monkeypatch):
        # The removed on/off switch must not be ignored silently: a set
        # REPRO_SPECULATE names the depth setting that replaced it, in the
        # library and when the daemon starts.
        from repro.serve.daemon import EstimateServer

        for raw in ("0", "1", "off"):
            monkeypatch.setenv("REPRO_SPECULATE", raw)
            with pytest.raises(ParameterError, match="REPRO_SPECULATE_DEPTH=1"):
                TriangleCountEstimator(EstimatorConfig(seed=1)).estimate(
                    _stream(wheel_graph(30)), kappa=3
                )
            with pytest.raises(ParameterError, match="REPRO_SPECULATE_DEPTH=1"):
                EstimateServer(port=0)
        monkeypatch.delenv("REPRO_SPECULATE")
        assert engine.resolve().speculate_depth == engine.DEFAULT_SPECULATE_DEPTH

    def test_engine_overrides_restores_speculate(self):
        before = engine.policy().speculate_depth
        with engine.engine_overrides(speculate_depth=4):
            assert engine.policy().speculate_depth == 4
            with engine.engine_overrides(speculate_depth=1):
                assert engine.policy().speculate_depth == 1
            assert engine.policy().speculate_depth == 4
        assert engine.policy().speculate_depth == before

    def test_config_field_default_and_validation(self):
        assert EstimatorConfig().speculate_depth is None
        assert EstimatorConfig(speculate_depth=1).speculate_depth == 1
        with pytest.raises(TypeError):
            EstimatorConfig(speculate=True)

    def test_env_initial_speculate_depth(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPECULATE_DEPTH", "4")
        assert engine.resolve().speculate_depth == 4
        for malformed in ("0", "nope"):  # below the floor, not an integer
            monkeypatch.setenv("REPRO_SPECULATE_DEPTH", malformed)
            with pytest.raises(ParameterError, match="REPRO_SPECULATE_DEPTH"):
                engine.resolve()
        monkeypatch.delenv("REPRO_SPECULATE_DEPTH")
        assert engine.resolve().speculate_depth == engine.DEFAULT_SPECULATE_DEPTH

    def test_engine_overrides_restores_speculate_depth(self):
        before = engine.policy().speculate_depth
        with engine.engine_overrides(speculate_depth=5):
            assert engine.policy().speculate_depth == 5
            with engine.engine_overrides(speculate_depth=3):
                assert engine.policy().speculate_depth == 3
            assert engine.policy().speculate_depth == 5
        assert engine.policy().speculate_depth == before

    def test_depth_validation(self):
        with pytest.raises(ParameterError, match="speculate_depth"):
            EstimatorConfig(speculate_depth=0)
        with pytest.raises(ParameterError, match="depth"):
            engine.resolve(speculate_depth=0)

    def test_pass_budget_allows_the_fused_pair(self):
        # A pair charges both rounds' logical passes against one scheduler;
        # the 12-pass pair budget must admit two full 6-pass rounds.
        graph = wheel_graph(100)
        stream = _stream(graph)
        plan_a = _plan(graph, 200.0)
        plan_b = _plan(graph, 100.0)
        (primary, speculative), scheduler = _run_window(
            stream,
            [plan_a, plan_b],
            [[random.Random(1)], [random.Random(2)]],
            [SpaceMeter(), SpaceMeter()],
        )
        assert primary[0].passes_used <= 6
        assert speculative[0].passes_used <= 6
        assert scheduler.passes_used <= 2 * PASS_BUDGET_PER_ROUND


class TestOwnersTags:
    def test_pair_tags_are_the_module_constants(self):
        assert PRIMARY != SPECULATIVE

    def test_interleaved_pass_still_rejected(self):
        stream = InMemoryEdgeStream([(0, 1), (1, 2)])
        scheduler = PassScheduler(stream)
        it = scheduler.new_fused_pass_chunks(passes=2)
        next(it)
        with pytest.raises(StreamError):
            scheduler.new_pass()
        it.close()
