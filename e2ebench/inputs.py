"""Seeded inputs for the end-to-end benchmark: catalog, ingest and reads.

Everything the benchmark feeds the program comes from here, derived from
one workload seed:

* a **catalog spec** — tables spread over a few databases, a share of
  them month-partitioned, each with an initial population of small
  files;
* an **ingest stream** — per tick, a fixed number of append commits to
  Zipf-skewed tables, each adding 1-3 files;
* a **read stream** — per tick, a fixed number of Zipf-chosen full-table
  reads.

File sizes are lognormal with ``sigma = 0.385``, the shape of a
production Parquet corpus (p10 0.093 GB … p50 0.165 GB … p99 0.404 GB,
Gini 0.217): p99/p50 = exp(2.326 sigma) ≈ 2.45 and
Gini = 2 Phi(sigma / sqrt 2) - 1 ≈ 0.214.  The median is scaled down to
a small-file size far below the 512 MiB compaction target, so every
fresh file is compaction debt.

Each stream draws from its own generator keyed by ``(seed, stream,
tick)``, so tick ``t`` of the ingest stream is the same however many
ticks a run makes, and the streams do not perturb one another.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

MiB = 1024**2

#: Lognormal shape parameter matching p99/p50 ≈ 2.4 and Gini ≈ 0.22.
SIZE_SIGMA = 0.385
#: Target shape of generated sizes, with the tolerance the test allows.
TARGET_P99_OVER_P50 = 2.45
TARGET_GINI = 0.214
SHAPE_TOLERANCE = {"p99_over_p50": 0.15, "gini": 0.015}

#: Partition tuples of a partitioned table (month ordinals).
PARTITIONS_PER_TABLE = 4
#: Median file size: a small file, far below the 512 MiB target.
MEDIAN_SIZE = 24 * MiB
#: Zipf exponent of table popularity, for both ingest and reads.
ZIPF_EXPONENT = 1.1


@dataclass(frozen=True)
class Shape:
    """The size and rate parameters of one workload's inputs."""

    tables: int
    databases: int
    #: Share of tables that are month-partitioned.
    partitioned_share: float
    #: Initial files per partition of a partitioned table, or per flat table.
    initial_files: int
    commits_per_tick: int
    reads_per_tick: int


@dataclass(frozen=True)
class TableSpec:
    """One table of the generated catalog."""

    database: str
    name: str
    partitioned: bool
    #: ``(partition, size_bytes)`` per initial file, in commit order.
    files: tuple
    #: Popularity rank (0 is the hottest table).
    rank: int = 0

    @property
    def qualified(self) -> str:
        return f"{self.database}.{self.name}"

    @property
    def partitions(self) -> list[tuple]:
        if not self.partitioned:
            return [()]
        return [(p,) for p in range(PARTITIONS_PER_TABLE)]


def _rng(seed: int, stream: str, index: int = 0) -> np.random.Generator:
    digest = hashlib.blake2b(f"{seed}:{stream}:{index}".encode(), digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(digest, "big"))


def file_sizes(rng: np.random.Generator, n: int) -> list[int]:
    """``n`` lognormal file sizes with the production shape, in bytes."""
    draws = rng.lognormal(mean=np.log(MEDIAN_SIZE), sigma=SIZE_SIGMA, size=n)
    return [max(int(x), 1) for x in draws]


def size_shape(sizes) -> dict[str, float]:
    """``p99/p50`` and the Gini coefficient of a list of sizes."""
    values = np.sort(np.asarray(sizes, dtype=np.float64))
    n = len(values)
    p50, p99 = np.percentile(values, [50, 99])
    ranks = np.arange(1, n + 1)
    gini = float(np.sum((2 * ranks - n - 1) * values) / (n * np.sum(values)))
    return {"p99_over_p50": float(p99 / p50), "gini": gini}


class Inputs:
    """The seeded catalog, ingest stream and read stream of one workload.

    Args:
        shape: sizes and rates.
        seed: workload seed; the same seed gives byte-identical inputs.
    """

    def __init__(self, shape: Shape, seed: int) -> None:
        self.shape = shape
        self.seed = seed
        # Each table gets a seeded popularity rank.  Its name, database and
        # whether it is partitioned follow from the rank alone, so every
        # seed puts the same kinds of table on the same shards at the top
        # of the Zipf curve, and seeds differ in sizes and draws, not in
        # structure.
        self._rank = _rng(seed, "popularity").permutation(shape.tables)
        weights = 1.0 / np.arange(1, shape.tables + 1) ** ZIPF_EXPONENT
        self._popularity = (weights / weights.sum())[self._rank]
        self.tables = self._catalog()

    def _catalog(self) -> list[TableSpec]:
        shape = self.shape
        rng = _rng(self.seed, "catalog")
        share = shape.partitioned_share
        tables = []
        for i, rank in enumerate(self._rank.tolist()):
            # Partitioned tables spread evenly down the ranks, and the
            # databases rotate so they do not line up with partitioning.
            partitioned = int((rank + 1) * share + 0.5) > int(rank * share + 0.5)
            database = f"db{(rank + rank // shape.databases) % shape.databases}"
            spec = TableSpec(database, f"t{rank:05d}", partitioned, ())
            files = []
            for partition in spec.partitions:
                sizes = file_sizes(rng, shape.initial_files)
                files.extend((partition, size) for size in sizes)
            tables.append(TableSpec(database, spec.name, partitioned, tuple(files), rank))
        return tables

    def ingest(self, tick: int) -> list[tuple[float, int, list[tuple[tuple, int]]]]:
        """Tick ``tick``'s append commits, in time order.

        Each is ``(offset, table index, [(partition, size)])``: the commit
        lands ``offset`` (a fraction in ``[0, 1)``) of the way through the
        tick, so micro-batches flush at scattered times.
        """
        shape = self.shape
        rng = _rng(self.seed, "ingest", tick)
        offsets = np.sort(rng.random(shape.commits_per_tick))
        targets = rng.choice(shape.tables, size=shape.commits_per_tick, p=self._popularity)
        counts = rng.integers(1, 4, size=shape.commits_per_tick)
        commits = []
        for offset, table_index, count in zip(
            offsets.tolist(), targets.tolist(), counts.tolist()
        ):
            table = self.tables[table_index]
            sizes = file_sizes(rng, count)
            if table.partitioned:
                # Micro-batches land in the two most recent months.
                months = rng.integers(PARTITIONS_PER_TABLE - 2, PARTITIONS_PER_TABLE, size=count)
                files = [((int(m),), s) for m, s in zip(months.tolist(), sizes)]
            else:
                files = [((), s) for s in sizes]
            commits.append((offset, table_index, files))
        return commits

    def reads(self, tick: int) -> list[int]:
        """Tick ``tick``'s full-table reads, as table indices."""
        rng = _rng(self.seed, "reads", tick)
        picks = rng.choice(self.shape.tables, size=self.shape.reads_per_tick, p=self._popularity)
        return picks.tolist()

    def digest(self, ticks: int) -> str:
        """A hash over the catalog and the first ``ticks`` ticks of both streams."""
        payload = {
            "tables": [
                [t.database, t.name, t.partitioned, t.rank, [[list(p), s] for p, s in t.files]]
                for t in self.tables
            ],
            "ingest": [
                [[t, i, [[list(p), s] for p, s in files]] for t, i, files in self.ingest(tick)]
                for tick in range(ticks)
            ],
            "reads": [self.reads(tick) for tick in range(ticks)],
        }
        text = json.dumps(payload, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()
