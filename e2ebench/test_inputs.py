"""Tests of the benchmark's seeded input generator.

Run from the repository root::

    python3 -m pytest e2ebench/test_inputs.py -q
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from inputs import SHAPE_TOLERANCE, TARGET_GINI, TARGET_P99_OVER_P50, Inputs, size_shape  # noqa: E402
from workload import WORKLOADS  # noqa: E402

TICKS = 5


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    shape = WORKLOADS[name].shape
    assert Inputs(shape, 7).digest(TICKS) == Inputs(shape, 7).digest(TICKS)
    assert Inputs(shape, 7).digest(TICKS) != Inputs(shape, 8).digest(TICKS)


def test_tick_streams_do_not_depend_on_run_length():
    shape = WORKLOADS["steady_ingest"].shape
    inputs = Inputs(shape, 3)
    later = [inputs.ingest(4), inputs.reads(4)]
    assert [Inputs(shape, 3).ingest(4), Inputs(shape, 3).reads(4)] == later


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_file_sizes_have_the_production_shape(name, seed):
    inputs = Inputs(WORKLOADS[name].shape, seed)
    sizes = [size for table in inputs.tables for _, size in table.files]
    for tick in range(TICKS):
        sizes += [size for _, _, files in inputs.ingest(tick) for _, size in files]
    shape = size_shape(sizes)
    assert abs(shape["p99_over_p50"] - TARGET_P99_OVER_P50) <= SHAPE_TOLERANCE["p99_over_p50"]
    assert abs(shape["gini"] - TARGET_GINI) <= SHAPE_TOLERANCE["gini"]
    assert max(sizes) < 512 * 1024**2  # every fresh file is below the compaction target


def test_ingest_is_zipf_skewed():
    shape = WORKLOADS["steady_ingest"].shape
    inputs = Inputs(shape, 1)
    hits: dict[int, int] = {}
    for tick in range(TICKS):
        for _, table_index, files in inputs.ingest(tick):
            hits[table_index] = hits.get(table_index, 0) + 1
            assert 1 <= len(files) <= 3
    top = sorted(hits.values(), reverse=True)
    # The hottest table takes far more than a uniform share of commits.
    assert top[0] > 20 * TICKS * shape.commits_per_tick / shape.tables
