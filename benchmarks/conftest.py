"""Shared benchmark fixtures: deterministic generated databases at three
scales, plus helpers to build engines and workloads.

Scales (objects ≈ students + courses·sections + staff):

* ``small``  — ~200 objects, ~700 links
* ``medium`` — ~700 objects, ~2.5k links
* ``large``  — ~2k objects, ~8k links

Each benchmark reports its scale through the pytest-benchmark group and
param name, so ``pytest benchmarks/ --benchmark-enable --benchmark-only``
prints the series each EXPERIMENTS.md row records (plain ``pytest`` runs
each benchmark once, untimed: ``pyproject.toml`` disables the timing).
"""

from __future__ import annotations

import pytest

from repro.university import GeneratorConfig, generate_university

SCALES = {
    "small": GeneratorConfig(
        departments=3, courses=10, sections_per_course=2, teachers=8,
        students=120, enrollments_per_student=3, tas=4, grads=12,
        faculty=4, seed=101),
    "medium": GeneratorConfig(
        departments=4, courses=30, sections_per_course=2, teachers=20,
        students=500, enrollments_per_student=3, tas=8, grads=30,
        faculty=8, seed=102),
    "large": GeneratorConfig(
        departments=6, courses=60, sections_per_course=3, teachers=40,
        students=1500, enrollments_per_student=4, tas=16, grads=60,
        faculty=16, seed=103),
}

_CACHE = {}


def dataset(scale: str, seed=None):
    """Session-cached generated database for a scale name.

    ``seed`` (threaded from the root ``--seed`` option) overrides the
    scale's fixed seed; the cache is keyed per (scale, seed) so mixed
    runs never alias."""
    key = (scale, seed)
    if key not in _CACHE:
        _CACHE[key] = generate_university(SCALES[scale], seed=seed)
    return _CACHE[key]


def _seed_option(request):
    return request.config.getoption("--seed", default=None)


@pytest.fixture(params=["small", "medium", "large"])
def scaled_data(request):
    return request.param, dataset(request.param, _seed_option(request))


@pytest.fixture
def small_data(request):
    return dataset("small", _seed_option(request))


@pytest.fixture
def medium_data(request):
    return dataset("medium", _seed_option(request))


@pytest.fixture
def large_data(request):
    return dataset("large", _seed_option(request))
