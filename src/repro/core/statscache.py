"""Incremental observation: a statistics cache for the observe phase.

The paper's deployment (§7) runs daily OODA cycles over tens of thousands
of tables, but only a fraction of the fleet writes on any given day.
Re-collecting :class:`~repro.core.candidates.CandidateStatistics` for every
candidate every cycle makes observation O(fleet size); caching the frozen
statistics of *clean* tables makes it O(dirty tables) instead.

Invalidation has three independent sources, mirroring how a deployment
learns about writes:

* **write events** — the :class:`~repro.core.service.AutoCompService`
  notification inbox (§5's decoupled optimize-after-write hooks) maps
  directly onto :meth:`StatsCache.invalidate`;
* **version tokens** — connectors that can read a cheap per-table change
  counter (e.g. the fleet model's ``stats_version`` array, or the LST
  connector's change-feed epoch) pass it to :meth:`StatsCache.get`; a
  mismatch evicts the entry;
* **TTL fallback** — entries older than ``ttl_s`` expire, bounding the
  staleness of slowly varying inputs (such as the §7 quota utilisation,
  which shifts as *other* tables in the database grow) even when no write
  event arrives.

Statistics objects are frozen dataclasses, so returning the cached object
itself is safe — the same value a fresh observation of unchanged state
would produce, which is what keeps cached cycles byte-identical to cold
ones (NFR2).
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass

from repro.core.candidates import Candidate, CandidateKey, CandidateStatistics
from repro.errors import ValidationError


@dataclass
class _Entry:
    statistics: CandidateStatistics
    stored_at: float
    token: object | None


class StatsCache:
    """Candidate-statistics cache with event, token and TTL invalidation.

    Args:
        ttl_s: maximum entry age in seconds; ``math.inf`` (the default)
            disables expiry so only events/tokens invalidate.
        version_slack: opt-in approximate staleness tolerance for *integer*
            version tokens: an entry whose stored token lags the lookup
            token by at most this many versions is still served (0, the
            default, requires exact freshness).  A table that trickled a
            handful of commits since its last observation has nearly
            unchanged statistics, so deployments can trade a bounded
            observation error for skipping the re-collection entirely.
            Non-integer tokens always require exact equality.  The LST
            connector's tokens are change-feed epochs, which advance with
            an event on *any* table, so there the slack counts feed events.

    Attributes:
        hits: lookups served from the cache.
        misses: lookups that found no usable entry.
        invalidations: entries dropped by :meth:`invalidate` /
            :meth:`invalidate_key`.
        expirations: entries dropped by TTL or token mismatch.

    Thread safety: shards of a sharded pipeline may share one key-hashed
    cache on a thread pool (their key slices are disjoint, but ``hits`` /
    ``misses`` and the two dicts are not), so every mutating method takes
    the cache's lock — the same discipline as
    :class:`IndexedCandidateCache`'s cross-slot mutations.
    """

    def __init__(self, ttl_s: float = math.inf, version_slack: int = 0) -> None:
        if ttl_s <= 0:
            raise ValidationError(f"ttl_s must be positive, got {ttl_s}")
        if version_slack < 0:
            raise ValidationError(f"version_slack must be >= 0, got {version_slack}")
        self.ttl_s = ttl_s
        self.version_slack = version_slack
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.expirations = 0
        self._entries: dict[CandidateKey, _Entry] = {}
        self._by_table: dict[str, set[CandidateKey]] = {}
        # Reentrant: apply_delta holds it across its batch while reusing
        # put(), and get() drops entries it finds stale.
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CandidateKey) -> bool:
        with self._lock:
            return key in self._entries

    def get(
        self, key: CandidateKey, now: float = 0.0, token: object | None = None
    ) -> CandidateStatistics | None:
        """The cached statistics for ``key``, or None on a miss.

        Args:
            key: candidate identity.
            now: current time, compared against the entry's ``stored_at``
                for TTL expiry.
            token: optional freshness token; when given, the entry is only
                valid if it was stored under an equal token.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            expired = now - entry.stored_at >= self.ttl_s
            stale = token is not None and entry.token != token
            if (
                stale
                and self.version_slack
                and isinstance(token, numbers.Integral)
                and isinstance(entry.token, numbers.Integral)
                and 0 <= token - entry.token <= self.version_slack
            ):
                # Approximate-freshness hit: the table advanced, but by few
                # enough versions that the cached statistics are close enough.
                stale = False
            if expired or stale:
                self._drop(key)
                self.expirations += 1
                self.misses += 1
                return None
            self.hits += 1
            return entry.statistics

    def put(
        self,
        key: CandidateKey,
        statistics: CandidateStatistics,
        now: float = 0.0,
        token: object | None = None,
    ) -> None:
        """Store ``statistics`` for ``key`` observed at ``now``."""
        with self._lock:
            self._entries[key] = _Entry(statistics, now, token)
            self._by_table.setdefault(key.qualified_table, set()).add(key)

    def invalidate(self, key: CandidateKey) -> int:
        """Drop every entry touching ``key``'s table; returns the count.

        A write event for any scope dirties all scopes of the table (a
        partition append changes the table-scope statistics too), so
        invalidation is deliberately table-granular.
        """
        with self._lock:
            keys = self._by_table.pop(key.qualified_table, None)
            if not keys:
                return 0
            for cached_key in keys:
                self._entries.pop(cached_key, None)
            self.invalidations += len(keys)
            return len(keys)

    def invalidate_key(self, key: CandidateKey) -> bool:
        """Drop exactly one entry; returns whether it existed."""
        with self._lock:
            if key not in self._entries:
                return False
            self._drop(key)
            self.invalidations += 1
            return True

    def apply_delta(self, delta, statistics: list[CandidateStatistics]) -> int:
        """Merge a shard worker's :class:`~repro.core.workers.CacheDelta`.

        Process-mode shard workers observe in another address space, so
        their cache writes would be lost with the worker's memory;
        replaying the delta here keeps invalidation tokens alive across
        the round trip — the next cycle's lookups hit exactly as if the
        observation had happened in-process.

        Args:
            delta: slots are :class:`~repro.core.candidates.CandidateKey`
                objects for this key-hashed cache.
            statistics: position-aligned statistics to store.

        Returns:
            Entries written.
        """
        if len(delta.slots) != len(statistics):
            raise ValidationError(
                f"cache delta has {len(delta.slots)} slots for "
                f"{len(statistics)} statistics"
            )
        with self._lock:
            for key, token, stats in zip(delta.slots, delta.tokens, statistics):
                self.put(key, stats, now=delta.stored_at, token=token)
        return len(statistics)

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        with self._lock:
            self._entries.clear()
            self._by_table.clear()

    def _drop(self, key: CandidateKey) -> None:
        self._entries.pop(key, None)
        siblings = self._by_table.get(key.qualified_table)
        if siblings is not None:
            siblings.discard(key)
            if not siblings:
                del self._by_table[key.qualified_table]

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups (0 when nothing was looked up)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def counters_snapshot(self) -> dict[str, int]:
        """All four counters read atomically under the lock.

        A caller sampling ``hits``/``misses``/... attribute-by-attribute can
        interleave with a concurrent lookup and report a torn state (e.g.
        a hit counted but not yet its lookup); telemetry paths should use
        this instead.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "expirations": self.expirations,
            }


class IndexedCandidateCache:
    """Dense, index-addressed sibling of :class:`StatsCache`.

    Vectorised connectors (the fleet) address tables by integer index, so
    this cache trades the generic key-hashed dictionary for flat per-index
    slots: freshness is a single integer-token comparison per lookup, and
    the cached value is the whole observed :class:`Candidate` — which the
    pipeline annotates *in place* during orient, so a hit skips both the
    statistics build and the trait recompute on the next cycle.  That is
    what makes a warm cycle O(dirty tables) end to end.

    Invalidation semantics match :class:`StatsCache`: write events
    (:meth:`invalidate_index`), version tokens (a stale token on lookup
    evicts), and a TTL fallback bounding the staleness of slowly varying
    statistics such as quota utilisation.

    Reused candidates carry the stamp of the trait registry that oriented
    them (``Candidate.oriented_by``), so pipelines with different trait
    registries may share a cache: each re-orients what another oriented.

    Args:
        ttl_s: maximum entry age in seconds (``math.inf`` disables).
        version_slack: opt-in approximate staleness tolerance (see
            :class:`StatsCache`): entries whose stored integer token lags
            the lookup token by at most this many versions still hit.
            Connectors running the validity check inline over the bulk
            accessors read this attribute and apply the same rule.
    """

    def __init__(self, ttl_s: float = math.inf, version_slack: int = 0) -> None:
        if ttl_s <= 0:
            raise ValidationError(f"ttl_s must be positive, got {ttl_s}")
        if version_slack < 0:
            raise ValidationError(f"version_slack must be >= 0, got {version_slack}")
        self.ttl_s = ttl_s
        self.version_slack = version_slack
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        #: Entries dropped by TTL or token mismatch — parity with
        #: :attr:`StatsCache.expirations`, so the two cache kinds report
        #: identical accounting for the same lookup scenario.
        self.expirations = 0
        self._candidates: list[Candidate | None] = []
        self._tokens: list[int] = []
        self._stored_at: list[float] = []
        # Shards observing on a thread pool may share one cache (their
        # index slices are disjoint): growth and bulk-counter updates are
        # the only cross-slot mutations, so they take this lock.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return sum(1 for c in self._candidates if c is not None)

    def ensure_capacity(self, count: int) -> None:
        """Grow the slot arrays to hold indices ``0..count-1`` (thread-safe)."""
        # Lock-free fast path: _stored_at is extended *last* under the
        # lock, so its length bounds all three lists from below.
        if count <= len(self._stored_at):  # repro-lint: disable=RL001 -- append-only growth; _stored_at extended last under the lock bounds all three lists from below
            return
        with self._lock:
            grow = count - len(self._candidates)
            if grow > 0:
                self._candidates.extend([None] * grow)
                self._tokens.extend([-1] * grow)
                self._stored_at.extend([-math.inf] * grow)

    def record_lookups(self, hits: int, misses: int, expirations: int = 0) -> None:
        """Bulk counter update for connectors classifying inline (thread-safe).

        ``expirations`` counts the misses whose slot held an entry that
        failed the token/TTL check — the inline twin of the eviction
        accounting :meth:`get` does itself.
        """
        with self._lock:
            self.hits += hits
            self.misses += misses
            self.expirations += expirations

    # Bulk accessors: vectorised connectors run the validity check inline
    # over these parallel lists (a method call per lookup would dominate a
    # warm cycle).  Treat them as read/write slots, never resize them —
    # use :meth:`ensure_capacity`; update ``hits``/``misses`` in bulk.

    @property
    def candidates(self) -> list[Candidate | None]:
        """Slot storage: the cached candidate per index (None = empty)."""
        return self._candidates  # repro-lint: disable=RL001 -- bulk accessor hands out the live storage; shards own disjoint slices

    @property
    def tokens(self) -> list[int]:
        """Slot storage: freshness token each entry was stored under."""
        return self._tokens  # repro-lint: disable=RL001 -- bulk accessor hands out the live storage; shards own disjoint slices

    @property
    def stored_ats(self) -> list[float]:
        """Slot storage: observation time of each entry (for TTL)."""
        return self._stored_at  # repro-lint: disable=RL001 -- bulk accessor hands out the live storage; shards own disjoint slices

    def get(self, index: int, now: float = 0.0, token: int = 0) -> Candidate | None:
        """The cached candidate at ``index``, or None on a miss.

        An entry is valid iff ``0 <= token - stored_token <= version_slack``
        (exact equality when slack is 0, the default) and it is younger
        than the TTL; stale entries are evicted.

        Thread-sharded connectors call this concurrently for disjoint
        indices (e.g. the catalog connector's per-key dense path), so the
        shared counters are updated under the lock — the slot accesses
        themselves need none, because shards own disjoint slices.
        """
        # Slot accesses below are deliberately lock-free: shards own
        # disjoint index slices (see the class docstring), so no two
        # threads ever touch the same slot.
        if index >= len(self._candidates):  # repro-lint: disable=RL001 -- shards own disjoint slices; lists only grow
            with self._lock:
                self.misses += 1
            return None
        candidate = self._candidates[index]  # repro-lint: disable=RL001 -- shards own disjoint slices
        if (
            candidate is None
            or not 0 <= token - self._tokens[index] <= self.version_slack  # repro-lint: disable=RL001 -- shards own disjoint slices
            or now - self._stored_at[index] >= self.ttl_s  # repro-lint: disable=RL001 -- shards own disjoint slices
        ):
            expired = candidate is not None
            if expired:
                self._candidates[index] = None  # repro-lint: disable=RL001 -- shards own disjoint slices
            with self._lock:
                if expired:
                    self.expirations += 1
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return candidate

    def put(self, index: int, candidate: Candidate, now: float = 0.0, token: int = 0) -> None:
        """Store ``candidate`` at ``index`` under freshness ``token``."""
        self.ensure_capacity(index + 1)
        self._candidates[index] = candidate  # repro-lint: disable=RL001 -- shards own disjoint slices; growth is locked in ensure_capacity
        self._tokens[index] = token  # repro-lint: disable=RL001 -- shards own disjoint slices
        self._stored_at[index] = now  # repro-lint: disable=RL001 -- shards own disjoint slices

    def apply_delta(self, delta, candidates: list[Candidate]) -> int:
        """Merge a shard worker's :class:`~repro.core.workers.CacheDelta`.

        The dense counterpart of :meth:`StatsCache.apply_delta`: slots are
        integer indices and the stored value is the whole oriented
        candidate, so after the merge the next cycle reuses the worker's
        observation *and* its trait computation.  Shards own disjoint index
        slices, so concurrent merges never race on a slot.

        Returns:
            Entries written.
        """
        if len(delta.slots) != len(candidates):
            raise ValidationError(
                f"cache delta has {len(delta.slots)} slots for "
                f"{len(candidates)} candidates"
            )
        for index, token, candidate in zip(delta.slots, delta.tokens, candidates):
            self.put(index, candidate, now=delta.stored_at, token=token)
        return len(candidates)

    def invalidate_index(self, index: int) -> bool:
        """Write-event eviction; returns whether an entry existed."""
        if index >= len(self._candidates) or self._candidates[index] is None:  # repro-lint: disable=RL001 -- shards own disjoint slices; lists only grow
            return False
        self._candidates[index] = None  # repro-lint: disable=RL001 -- shards own disjoint slices
        with self._lock:
            self.invalidations += 1
        return True

    def clear(self) -> None:
        """Drop all entries in place (counters and aliases are preserved).

        Mutates the existing slot lists rather than rebinding them, so
        holders of the bulk accessors keep observing the live storage.
        """
        with self._lock:
            del self._candidates[:]
            del self._tokens[:]
            del self._stored_at[:]

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups (0 when nothing was looked up)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def counters_snapshot(self) -> dict[str, int]:
        """All four counters read atomically under the lock.

        Mirrors :meth:`StatsCache.counters_snapshot` so telemetry code can
        duck-type over either cache kind without risking a torn
        attribute-by-attribute read.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "expirations": self.expirations,
            }
