"""The ``WorkerTransport`` seam: one protocol between connectors and workers.

* :class:`WorkerTransport` — the contract the sharded pipeline drives:
  ``export`` a shard's keys into hits + a picklable spec,
  ``attach_decide`` the decide phase, ``merge`` / ``merge_decision`` a
  worker's answer back, ``release`` the spec's shared resources.
* :class:`PickleTransport` — the per-object encoding: the connector's
  ``export_shard_work`` snapshots the misses, and the worker's candidates
  come back as pickles.
* :class:`ColumnarTransport` — the zero-copy encoding
  (:mod:`repro.core.columnar`): flat arrays in shared memory out, trait
  matrices and selection references back.

Exports are format-specific and stay on the connectors; merging is not —
both transports fill the holes themselves and hand the worker's cache
delta to :meth:`~repro.core.connectors.Connector.store_worker_observations`,
so process-mode caches stay as warm as thread-mode ones.

Capability negotiation is two-layered: a connector advertises the
transport *kinds* it speaks (:meth:`Connector.worker_transport_kinds`)
and builds a transport on request
(:meth:`Connector.worker_transport`, via :data:`TRANSPORT_CLASSES`); the
:class:`~repro.core.workers.WorkerPool` then performs the contract
handshake (:meth:`~repro.core.workers.WorkerPool.negotiate`) verifying
the worker side runs the same spec version and transport before any spec
ships.
"""

from __future__ import annotations

import abc
import dataclasses

from repro.core.candidates import Candidate
from repro.core.columnar import ColumnarHitPayload
from repro.core.workers import ShardDecideSpec, ShardDecision, ShardWorkSpec
from repro.errors import ValidationError


class WorkerTransport(abc.ABC):
    """How one shard's work crosses (or does not cross) a process boundary.

    A transport is bound to one connector and optionally to the
    :class:`~repro.core.workers.WorkerPool` executing its specs
    (:meth:`bind_pool` lets the pool track shared resources for
    crash-safe cleanup).  The sharded pipeline drives the same five calls
    whatever the encoding, which is what lets transports be negotiated
    per pool instead of hard-coded per connector.
    """

    #: The negotiated capability name (:data:`~repro.core.workers.TRANSPORT_KINDS`).
    kind: str = "pickle"

    def __init__(self, connector) -> None:
        self.connector = connector
        self._pool = None

    def bind_pool(self, pool) -> None:
        """Attach the executing pool so shared resources survive crashes."""
        self._pool = pool

    @abc.abstractmethod
    def export(
        self, keys: list, shard_index: int, traits
    ) -> tuple[list, ShardWorkSpec | None]:
        """Split ``keys`` into local cache hits and a shippable spec.

        Returns ``(placed, spec)``: ``placed`` is the generation-order
        candidate list with ``None`` holes at miss positions; ``spec``
        covers the holes in order (``None`` when everything hit).
        """

    @abc.abstractmethod
    def attach_decide(
        self,
        spec: ShardWorkSpec,
        placed: list,
        policy,
        selector,
        stats_filters,
        trait_filters,
    ) -> ShardWorkSpec:
        """Extend a spec with the worker-side decide phase."""

    @abc.abstractmethod
    def merge(self, spec: ShardWorkSpec, placed: list, result) -> list[Candidate]:
        """Fill ``placed``'s holes from a worker result; absorb its cache delta."""

    @abc.abstractmethod
    def merge_decision(self, spec: ShardWorkSpec, placed: list, result) -> ShardDecision:
        """Resolve a worker's decide answer into a decision with real candidates."""

    def release(self, spec: ShardWorkSpec | None) -> None:
        """Free any shared resources the spec holds (idempotent, crash-safe)."""

    def close(self) -> None:
        """Transport-lifetime teardown (pipeline close)."""


class PickleTransport(WorkerTransport):
    """Per-object encoding: candidates and snapshots cross as pickles.

    Export delegates to the connector's ``export_shard_work`` encoder; the
    worker ships its (oriented) miss candidates back, which fill the
    placed list's holes and ride the cache delta into the coordinator's
    cache.  The one encoding that carries hit ``file_sizes`` to
    worker-side custom statistics filters.
    """

    kind = "pickle"

    def export(self, keys, shard_index, traits):
        return self.connector.export_shard_work(keys, shard_index, traits)

    def attach_decide(self, spec, placed, policy, selector, stats_filters, trait_filters):
        return dataclasses.replace(
            spec,
            decide=ShardDecideSpec(
                policy=policy,
                selector=selector,
                stats_filters=tuple(stats_filters),
                trait_filters=tuple(trait_filters),
                hits=tuple(placed),
            ),
        )

    def merge(self, spec, placed, result):
        holes = sum(1 for candidate in placed if candidate is None)
        if holes != len(result.candidates):
            raise ValidationError(
                f"shard result carries {len(result.candidates)} candidates "
                f"for {holes} miss positions"
            )
        self.connector.store_worker_observations(result.cache_delta, result.candidates)
        fill = iter(result.candidates)
        return [c if c is not None else next(fill) for c in placed]

    def merge_decision(self, spec, placed, result):
        # The worker returned only the selected candidates, position-
        # aligned with the delta: absorb the cache updates, fill nothing.
        self.connector.store_worker_observations(result.cache_delta, result.candidates)
        return result.decision


class ColumnarTransport(WorkerTransport):
    """Zero-copy encoding: flat arrays in shared memory, references back.

    Export packs the miss observations into a
    :class:`~repro.core.columnar.ColumnarMissBlock` (one shared-memory
    segment per spec) via the connector's ``export_columnar`` hook; the
    worker reads the coordinator's bytes in place and answers with a
    trait matrix plus — under worker decide — selection references and a
    cache delta covering *every* miss.  The coordinator rebuilds miss
    candidates from its **retained** export arrays, so no candidate
    object crosses the boundary in either direction, and its caches end
    the cycle exactly as warm as a thread-mode cycle would leave them.

    Hit statistics ship as scalar columns plus the precomputed trait
    matrix; per-file sizes and custom statistics stay behind (hits
    carrying custom statistics fall back to object pickling).  A custom
    ``stats_filter`` that reads ``file_sizes`` therefore sees empty sizes
    on worker-side hits under this transport — select ``pickle`` when
    that matters.
    """

    kind = "columnar"

    def export(self, keys, shard_index, traits):
        placed, spec = self.connector.export_columnar(keys, shard_index, traits)
        if spec is not None and self._pool is not None:
            self._pool.track_resource(spec.snapshot)
        return placed, spec

    def attach_decide(self, spec, placed, policy, selector, stats_filters, trait_filters):
        names = tuple(spec.traits.names())
        if self.connector.reuses_candidates:
            # Reused hits ride the payload as trait rows the worker trusts:
            # orient any this registry has not (a quota re-stamp dropped
            # its traits, or another registry oriented it).
            spec.traits.annotate_all([c for c in placed if c is not None], only_missing=True)
        payload = ColumnarHitPayload.try_pack(placed, names)
        if payload is not None and self._pool is not None:
            self._pool.track_resource(payload)
        decide = ShardDecideSpec(
            policy=policy,
            selector=selector,
            stats_filters=tuple(stats_filters),
            trait_filters=tuple(trait_filters),
            hits=() if payload is not None else tuple(placed),
            hits_payload=payload,
        )
        return dataclasses.replace(spec, decide=decide)

    def _rebuild(self, spec: ShardWorkSpec, result) -> list[Candidate]:
        """Miss candidates from the retained arrays + the returned matrix."""
        payload = result.columnar
        names = payload.trait_names
        statistics = spec.snapshot.statistics_batch()  # type: ignore[attr-defined]
        rows = payload.matrix.tolist()
        stamp = spec.traits.stamp
        return [
            Candidate(
                key=key, statistics=stats, traits=dict(zip(names, row)), oriented_by=stamp
            )
            for key, stats, row in zip(spec.keys, statistics, rows)
        ]

    def merge(self, spec, placed, result):
        rebuilt = self._rebuild(spec, result)
        self.connector.store_worker_observations(result.cache_delta, rebuilt)
        fill = iter(rebuilt)
        return [c if c is not None else next(fill) for c in placed]

    def merge_decision(self, spec, placed, result):
        rebuilt = self._rebuild(spec, result)
        self.connector.store_worker_observations(result.cache_delta, rebuilt)
        payload = result.columnar
        selected: list[Candidate] = []
        hit_selected: list[Candidate] = []
        for (origin, position), score in zip(payload.selected, payload.scores):
            if origin == "hit":
                candidate = placed[position]
                hit_selected.append(candidate)
            else:
                candidate = rebuilt[position]
            candidate.score = score
            selected.append(candidate)
        # Selected hits are the coordinator's own cached candidates; a
        # non-reusing cache hands them over without traits (the worker
        # annotated its transient copies, which never cross back), so the
        # act phase's trait reads need them recomputed here — same
        # registry, same statistics, hence bit-identical values.
        spec.traits.annotate_all(hit_selected, only_missing=True)
        worker = result.decision
        return ShardDecision(
            after_stats_filters=worker.after_stats_filters,
            after_trait_filters=worker.after_trait_filters,
            ranked=worker.ranked,
            selected=selected,
        )

    def release(self, spec):
        if spec is None:
            return
        snapshot = spec.snapshot
        if snapshot is not None:
            snapshot.dispose()  # type: ignore[attr-defined]
            if self._pool is not None:
                self._pool.untrack_resource(snapshot)
        if spec.decide is not None and spec.decide.hits_payload is not None:
            payload = spec.decide.hits_payload
            payload.dispose()  # type: ignore[attr-defined]
            if self._pool is not None:
                self._pool.untrack_resource(payload)


#: Transport class per negotiable kind
#: (:data:`~repro.core.workers.TRANSPORT_KINDS`).
TRANSPORT_CLASSES: dict[str, type[WorkerTransport]] = {
    cls.kind: cls for cls in (ColumnarTransport, PickleTransport)
}
