"""Unit tests for the WorkerTransport connector API.

Covers the three contracts the transport seam defines:

* **transport construction** — one base
  :meth:`~repro.core.connectors.Connector.worker_transport` builds the
  transport for whichever kind a connector advertises;
* **handshake** — :meth:`~repro.core.workers.WorkerPool.negotiate` is the
  pool's single version check, raising one
  :class:`~repro.core.workers.WorkerError` that names both sides;
* **segment lifecycle** — shared-memory blocks tracked with a pool never
  outlive it, whether the pool closes normally or a worker crashed, and a
  process-pool cycle leaves no resource-tracker warnings behind.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

from repro.catalog import Catalog
from repro.core.columnar import ColumnarMissBlock
from repro.core.connectors import Connector, LstConnector
from repro.core.transport import ColumnarTransport, PickleTransport
from repro.core.workers import (
    TRANSPORT_KINDS,
    WORK_SPEC_VERSION,
    TransportContract,
    WorkerError,
    WorkerPool,
    process_workers_available,
)
from repro.errors import ValidationError
from repro.fleet import FleetConfig, FleetConnector, FleetModel

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


class _PlainConnector(Connector):
    """No worker-observe support at all: thread-pool fallback territory."""

    def list_candidates(self, strategy: str = "table"):
        return []

    def collect_statistics(self, key):
        raise NotImplementedError


class _PickleOnlyConnector(_PlainConnector):
    def worker_transport_kinds(self):
        return ("pickle",)


def _speaking_connectors():
    return [
        LstConnector(Catalog()),
        FleetConnector(FleetModel(FleetConfig(initial_tables=10, seed=1))),
    ]


class TestWorkerTransport:
    def test_columnar_is_the_default(self):
        for connector in _speaking_connectors():
            transport = connector.worker_transport()
            assert type(transport) is ColumnarTransport
            assert transport.kind == "columnar"
            assert transport.connector is connector

    def test_pickle_on_request(self):
        for connector in _speaking_connectors():
            transport = connector.worker_transport("pickle")
            assert type(transport) is PickleTransport
            assert transport.connector is connector

    def test_default_is_the_first_advertised_kind(self):
        assert type(_PickleOnlyConnector().worker_transport()) is PickleTransport

    def test_plain_connector_yields_no_transport_and_no_warning(self):
        connector = _PlainConnector()
        assert connector.worker_transport_kinds() == ()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert connector.worker_transport() is None
            assert connector.worker_transport("pickle") is None

    def test_unspoken_kind_is_rejected_by_name(self):
        with pytest.raises(ValidationError, match="'columnar'") as excinfo:
            _PickleOnlyConnector().worker_transport("columnar")
        assert "_PickleOnlyConnector" in str(excinfo.value)
        with pytest.raises(ValidationError, match="'morse'"):
            LstConnector(Catalog()).worker_transport("morse")


class TestHandshake:
    def test_thread_pool_negotiates_the_local_contract(self):
        with WorkerPool(mode="threads") as pool:
            contract = pool.negotiate("pickle")
            assert contract == TransportContract(
                version=WORK_SPEC_VERSION, transports=TRANSPORT_KINDS
            )

    @pytest.mark.skipif(
        not process_workers_available(), reason="process workers need fork"
    )
    def test_process_pool_handshake_round_trips_through_a_worker(self):
        with WorkerPool(mode="processes", max_workers=1) as pool:
            contract = pool.negotiate("columnar")
            assert contract.version == WORK_SPEC_VERSION
            assert "columnar" in contract.transports
            # Cached: the second call must not cost another round trip.
            assert pool.negotiate("pickle") is contract

    def test_version_mismatch_raises_one_error_naming_both_sides(self):
        pool = WorkerPool(mode="threads")
        try:
            # Simulate workers answering with an older build's contract.
            pool._contract = TransportContract(
                version=WORK_SPEC_VERSION - 1, transports=("pickle",)
            )
            with pytest.raises(WorkerError) as excinfo:
                pool.negotiate("pickle")
            message = str(excinfo.value)
            assert f"v{WORK_SPEC_VERSION}" in message  # coordinator side
            assert f"v{WORK_SPEC_VERSION - 1}" in message  # worker side
            assert "pickle" in message and "columnar" in message
        finally:
            pool.close()

    def test_unspoken_transport_raises_with_both_vocabularies(self):
        pool = WorkerPool(mode="threads")
        try:
            pool._contract = TransportContract(
                version=WORK_SPEC_VERSION, transports=("pickle",)
            )
            with pytest.raises(WorkerError, match="handshake"):
                pool.negotiate("columnar")
        finally:
            pool.close()


def _shm_block() -> ColumnarMissBlock:
    """A miss block forced onto shared memory (``min_shm_bytes=0``)."""
    n = 4
    return ColumnarMissBlock.from_sizes(
        [tuple(range(1, 401))] * n,
        targets=[512] * n,
        partition_counts=[1] * n,
        delete_file_counts=[0] * n,
        created_at=[0.0] * n,
        last_modified_at=[1.0] * n,
        quota_utilization=[0.5] * n,
        min_shm_bytes=0,
    )


def _segment_path(block: ColumnarMissBlock) -> str:
    name = block._block._shm_name
    assert name, "block should be shm-backed"
    return os.path.join("/dev/shm", name.lstrip("/"))


def _sigkill_self() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


class TestSegmentLifecycle:
    def test_pool_close_unlinks_tracked_segments(self):
        block = _shm_block()
        assert block.backing == "shm"
        path = _segment_path(block)
        pool = WorkerPool(mode="threads")
        pool.track_resource(block)
        assert os.path.exists(path)
        pool.close()
        assert not os.path.exists(path)

    def test_untracked_segments_are_left_alone(self):
        block = _shm_block()
        path = _segment_path(block)
        pool = WorkerPool(mode="threads")
        pool.track_resource(block)
        pool.untrack_resource(block)  # the normal per-cycle release path
        pool.close()
        assert os.path.exists(path)
        block.dispose()
        assert not os.path.exists(path)

    @pytest.mark.skipif(
        not process_workers_available(), reason="process workers need fork"
    )
    def test_worker_crash_still_unlinks_segments(self):
        block = _shm_block()
        path = _segment_path(block)
        pool = WorkerPool(mode="processes", max_workers=1)
        try:
            pool.track_resource(block)
            future = pool.submit(_sigkill_self)
            with pytest.raises(Exception):
                future.result(timeout=60)
        finally:
            pool.close()
        assert not os.path.exists(path)


_COLUMNAR_PROCESS_CYCLE = textwrap.dedent(
    """
    from repro.fleet import FleetConfig, FleetModel
    from repro.fleet.simulator import ShardedAutoCompStrategy

    model = FleetModel(FleetConfig(initial_tables=2000, seed=3))
    model.step_day()
    with ShardedAutoCompStrategy(
        model, n_shards=2, k=5, workers="processes", max_workers=2,
        transport="columnar",
    ) as strategy:
        strategy.pipeline.run_cycle(now=0.0)
    print("cycle ok")
    """
)


@pytest.mark.skipif(
    not process_workers_available(), reason="process workers need fork"
)
def test_process_cycle_leaves_no_resource_tracker_warnings():
    """A fresh interpreter's first columnar process cycle exits clean.

    Runs in a subprocess because the warnings only appear when the
    coordinator's resource tracker is not yet running at pool fork time —
    a state this test process left long ago — and only at interpreter exit.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _COLUMNAR_PROCESS_CYCLE],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "cycle ok" in proc.stdout
    assert "leaked shared_memory" not in proc.stderr, proc.stderr
    assert "No such file or directory" not in proc.stderr, proc.stderr
