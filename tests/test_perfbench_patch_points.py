"""The benchmark tracer's patch points exist, and its restore is exact.

``perfbench/tracer.py`` times the program by patching names where their
callers look them up (module attributes and class attributes).  It is
loaded here as it is, and installed and removed once with every wrapper:
a patched name that ``src/`` renames or deletes fails this test instead
of the benchmark's traced runs, and every attribute the tracer replaced
must afterwards hold the very object it held before.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro.core import driver, executor, kernels, snapshot, speculate, stages
from repro.serve import daemon, scheduler
from repro.streams.multipass import PassScheduler
from repro.streams.space import SpaceMeter

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owners():
    """Every module and class whose attributes the tracer may patch."""
    plans = [
        cls
        for cls in vars(kernels).values()
        if isinstance(cls, type) and issubclass(cls, executor.PassPlan)
    ]
    return [
        driver,
        driver.TriangleCountEstimator,
        stages,
        speculate,
        executor,
        PassScheduler,
        snapshot,
        snapshot.SnapshotWriter,
        SpaceMeter,
        daemon,
        scheduler,
        scheduler.SweepScheduler,
        *plans,
    ]


def _attributes(owners):
    return {(id(owner), name): value for owner in owners for name, value in vars(owner).items()}


def test_install_patches_and_restore_puts_every_object_back():
    tracer = _load_tracer()
    owners = _owners()
    before = _attributes(owners)
    restore = tracer.install(tracer.Tracer(), kernels=True, serve=True)
    try:
        during = _attributes(owners)
    finally:
        restore()
    after = _attributes(owners)
    patched = [key for key, value in during.items() if before.get(key) is not value]
    # The tracer wraps the estimator, the sweeps, every plan's kernel and
    # absorb, the snapshot writer, the meter and the serving layer.
    assert len(patched) >= 20, patched
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert moved == []
