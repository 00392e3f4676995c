"""Pattern-set sharding: split the combined automaton across scan workers.

The paper's MCA² stress mitigation already dedicates engines to slices of
the global pattern set; this module makes that slicing a first-class,
deterministic object and gives it a parallel execution backend:

* :class:`ShardPlan` — a seeded, disjoint partition of the distinct pattern
  contents into K shards, balanced by per-pattern scan-cost estimates
  (``cost`` strategy) or plain pattern counts (``size``).  Plans are pure
  data: the same inputs and seed always produce the same assignment, and an
  explicit assignment (e.g. an MCA² dedicated-engine layout) can be wrapped
  with :meth:`ShardPlan.from_assignments`.
* :class:`ShardedAutomaton` — a drop-in for
  :class:`~repro.core.combined.CombinedAutomaton` that builds one combined
  sub-automaton per shard and mirrors the scan/resolve surface the
  :class:`~repro.core.scanner.VirtualScanner` uses.  Accepting states are
  renumbered globally (shard-local id + shard offset) so raw matches
  resolve through the owning shard's match tables; DFA states are encoded
  in mixed radix over the per-shard state counts, so a stateful flow's
  resume state round-trips through the flow table as one integer exactly
  like the monolithic automaton's.
* :class:`ShardedKernel` — satisfies the
  :class:`~repro.core.kernels.ScanKernel` protocol: it fans a payload out
  to the per-shard kernels (any of reference/flat/regex) through an
  execution backend (``serial``, ``process`` or the shared-memory
  ``zerocopy`` arena — see :mod:`repro.core.workers` and
  :mod:`repro.core.zerocopy`) and merges the per-shard results with stable
  ``(bytes consumed, global accepting state)`` match ordering.  Batched
  scans additionally support a ``pipelined`` mode on arena backends: the
  batch is split into contiguous chunks double-buffered across two arena
  regions, so writing chunk N+1's payloads overlaps scanning chunk N.  If
  a worker pool fails mid-flight the kernel drains it and permanently
  falls back to serial execution, reporting the event through the
  telemetry hook.

Sharding changes *raw* accepting-state numbering, so sharded scans are
equivalent to monolithic scans at the resolved-match level (per-middlebox
``(pattern id, position)`` pairs), not the raw-state level — the shard
equivalence property suite (``tests/test_sharding_properties.py``) pins
exactly that contract, including ``active_bitmap`` masking, ``limit``
cutoffs and mid-flow resumes.
"""

from __future__ import annotations

import heapq
import random
import time
from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping, cast

from repro.core.aho_corasick import AutomatonStats
from repro.core.combined import CombinedAutomaton
from repro.core.kernels import KERNEL_NAMES, CombinedScanResult, ScanCache
from repro.core.patterns import Pattern, PatternKind
from repro.core.workers import BACKEND_NAMES, make_backend, make_shard_spec

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.workers import PipelinedShardBackend

__all__ = [
    "SHARDED_KERNEL_NAME",
    "ShardPlan",
    "ShardedAutomaton",
    "ShardedKernel",
    "estimate_scan_cost",
]

#: The kernel name ``InstanceConfig``/CLI select sharded scanning with.
SHARDED_KERNEL_NAME = "sharded"

#: Merge order of raw matches: by bytes consumed, then global accept state.
_MERGE_ORDER = itemgetter(1, 0)

#: Chunks a pipelined batch is split into (bounded so per-chunk dispatch
#: overhead stays amortized; two are in flight at any moment).
_PIPELINE_CHUNKS = 4


def estimate_scan_cost(data: bytes) -> int:
    """A per-pattern scan-cost estimate for balancing shards.

    Proportional to the automaton states the pattern contributes (its
    length) plus a flat per-pattern overhead for match-table entries and
    anchor pressure.  Only relative magnitudes matter: the estimate decides
    balance quality, never correctness.
    """
    return len(data) + 8


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic, disjoint partition of pattern contents into shards.

    ``assignments[k]`` holds the (sorted) distinct pattern byte-strings of
    shard *k*.  Every distinct pattern appears in exactly one shard; shards
    may be empty when there are fewer patterns than shards.
    """

    num_shards: int
    strategy: str
    seed: int
    assignments: "tuple[tuple[bytes, ...], ...]"

    #: Balancing strategies: ``cost`` uses :func:`estimate_scan_cost`,
    #: ``size`` balances plain pattern counts.
    STRATEGIES = ("cost", "size")

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"shard count must be positive: {self.num_shards}")
        if len(self.assignments) != self.num_shards:
            raise ValueError(
                f"{len(self.assignments)} assignments for {self.num_shards} shards"
            )
        seen: set[bytes] = set()
        for shard in self.assignments:
            for data in shard:
                if data in seen:
                    raise ValueError(f"pattern assigned twice: {data!r}")
                seen.add(data)

    @classmethod
    def build(
        cls,
        pattern_sets: "Mapping[int, Iterable[Pattern]]",
        num_shards: int,
        strategy: str = "cost",
        seed: int = 0,
    ) -> "ShardPlan":
        """Partition the distinct patterns of *pattern_sets* into K shards.

        Patterns are shuffled with a seeded RNG (to decorrelate ties from
        input order), sorted by descending cost, and greedily assigned to
        the currently lightest shard — the classic LPT balance heuristic,
        fully deterministic for a given input set and seed.
        """
        if num_shards < 1:
            raise ValueError(f"shard count must be positive: {num_shards}")
        if strategy not in cls.STRATEGIES:
            raise ValueError(
                f"unknown shard strategy {strategy!r}; "
                f"expected one of {cls.STRATEGIES}"
            )
        distinct: set[bytes] = set()
        for middlebox_id in sorted(pattern_sets):
            for pattern in pattern_sets[middlebox_id]:
                if pattern.kind is not PatternKind.LITERAL:
                    raise ValueError(
                        "ShardPlan partitions literal patterns only; "
                        "extract regex anchors first (see repro.core.regex)"
                    )
                distinct.add(pattern.data)
        order = sorted(distinct)
        random.Random(seed).shuffle(order)
        if strategy == "cost":
            costs = {data: estimate_scan_cost(data) for data in order}
        else:
            costs = {data: 1 for data in order}
        order.sort(key=costs.__getitem__, reverse=True)
        # Greedy LPT: heaviest pattern first, always onto the lightest
        # shard (ties resolve to the lowest shard index).
        heap = [(0, shard) for shard in range(num_shards)]
        buckets: "list[list[bytes]]" = [[] for _ in range(num_shards)]
        for data in order:
            load, shard = heapq.heappop(heap)
            buckets[shard].append(data)
            heapq.heappush(heap, (load + costs[data], shard))
        return cls(
            num_shards=num_shards,
            strategy=strategy,
            seed=seed,
            assignments=tuple(tuple(sorted(bucket)) for bucket in buckets),
        )

    @classmethod
    def from_assignments(
        cls, assignments: "Iterable[Iterable[bytes]]", seed: int = 0
    ) -> "ShardPlan":
        """Wrap an explicit shard layout (e.g. MCA² dedicated engines)."""
        shards = tuple(tuple(sorted(set(shard))) for shard in assignments)
        return cls(
            num_shards=len(shards),
            strategy="explicit",
            seed=seed,
            assignments=shards,
        )

    def shard_of(self, data: bytes) -> int:
        """The shard index owning one pattern content (KeyError if absent)."""
        for index, shard in enumerate(self.assignments):
            if data in shard:
                return index
        raise KeyError(f"pattern not in plan: {data!r}")

    def shard_costs(self) -> "list[int]":
        """Estimated scan cost per shard (the quantity ``cost`` balances)."""
        return [
            sum(estimate_scan_cost(data) for data in shard)
            for shard in self.assignments
        ]

    def balance_ratio(self) -> float:
        """Max/mean shard cost over non-empty shards (1.0 = perfect)."""
        costs = [cost for cost in self.shard_costs() if cost]
        if not costs:
            return 1.0
        return max(costs) * len(costs) / sum(costs)

    def subset_pattern_sets(
        self, pattern_sets: "Mapping[int, Iterable[Pattern]]"
    ) -> "list[dict[int, list[Pattern]]]":
        """Per-shard pattern-set mappings.

        Every shard's mapping carries every middlebox id (possibly with an
        empty list) so per-shard automatons agree with the parent about the
        registered-middlebox bitmap.
        """
        owner = {
            data: index
            for index, shard in enumerate(self.assignments)
            for data in shard
        }
        middlebox_ids = sorted(pattern_sets)
        subsets: "list[dict[int, list[Pattern]]]" = [
            {middlebox_id: [] for middlebox_id in middlebox_ids}
            for _ in range(self.num_shards)
        ]
        for middlebox_id in middlebox_ids:
            for pattern in pattern_sets[middlebox_id]:
                subsets[owner[pattern.data]][middlebox_id].append(pattern)
        return subsets


class ShardedKernel:
    """Fan-out/merge scan kernel over per-shard combined automatons.

    Satisfies the :class:`~repro.core.kernels.ScanKernel` protocol.  Raw
    matches come back renumbered into the global accepting-state space
    (shard-local id + shard offset) in stable ``(cnt, state)`` order; the
    end state is the mixed-radix encoding of the per-shard end states.

    The execution backend is pluggable (:mod:`repro.core.workers`).  When a
    ``process`` pool fails, the kernel drains it, switches permanently to
    serial execution, bumps :attr:`fallback_count` and notifies the
    telemetry hook installed by
    :meth:`ShardedAutomaton.bind_telemetry` — a scan never fails because
    the pool did.
    """

    name = SHARDED_KERNEL_NAME

    def __init__(
        self,
        automata,
        offsets,
        backend: str = "serial",
        specs=None,
        workers: "int | None" = None,
    ) -> None:
        self._automata = list(automata)
        self._offsets = list(offsets)
        self._sizes = [automaton.num_states for automaton in self._automata]
        self._roots = [automaton.root for automaton in self._automata]
        strides = []
        stride = 1
        for size in self._sizes:
            strides.append(stride)
            stride *= size
        self._strides = strides
        self._specs = tuple(specs or ())
        self._backend = make_backend(
            backend, automata=self._automata, specs=self._specs, workers=workers
        )
        #: Scans executed per shard (mirrors ``dpi_shard_scans_total``).
        self.shard_scans = [0] * len(self._automata)
        #: Merge passes and the wall time they took.
        self.merges = 0
        self.merge_seconds = 0.0
        #: Times the process pool failed and execution fell back to serial.
        self.fallback_count = 0
        # Telemetry hooks, installed by ShardedAutomaton.bind_telemetry.
        self._shard_counters = None
        self._merge_hist = None
        self._on_pool_failure = None

    # --- state encoding ----------------------------------------------------

    def _encode(self, states) -> int:
        total = 0
        for state, stride in zip(states, self._strides):
            total += state * stride
        return total

    def _decode(self, state: int) -> "list[int]":
        return [
            (state // stride) % size
            for stride, size in zip(self._strides, self._sizes)
        ]

    def _root_state(self) -> int:
        return self._encode(self._roots)

    # --- execution ---------------------------------------------------------

    def _fall_back(self, error: BaseException) -> None:
        """Drain the failed pool and switch permanently to serial."""
        failed = self._backend
        self._backend = make_backend(
            "serial", automata=self._automata, specs=self._specs
        )
        self.fallback_count += 1
        try:
            failed.shutdown()
        except Exception:
            pass  # the pool is already gone; nothing left to drain
        hook = self._on_pool_failure
        if hook is not None:
            hook(error)

    def _run_shards(self, tasks):
        try:
            raws = self._backend.scan_shards(tasks)
        except Exception as error:
            self._fall_back(error)
            raws = self._backend.scan_shards(tasks)
        self._count_scans(1)
        return raws

    def _run_batches(self, tasks, per_shard: int):
        try:
            raws = self._backend.scan_shard_batches(tasks)
        except Exception as error:
            self._fall_back(error)
            raws = self._backend.scan_shard_batches(tasks)
        self._count_scans(per_shard)
        return raws

    def _count_scans(self, amount: int) -> None:
        for index in range(len(self.shard_scans)):
            self.shard_scans[index] += amount
        counters = self._shard_counters
        if counters is not None:
            for counter in counters:
                counter.inc(amount)

    def _merge(self, raws) -> CombinedScanResult:
        """Merge per-shard raw results into one combined result."""
        started = time.perf_counter()
        merged: "list[tuple[int, int]]" = []
        ends: "list[int]" = []
        bytes_scanned = 0
        for index, (raw, end, scanned) in enumerate(raws):
            if raw:
                offset = self._offsets[index]
                merged.extend((offset + state, cnt) for state, cnt in raw)
            ends.append(end)
            if scanned > bytes_scanned:
                bytes_scanned = scanned
        if len(merged) > 1:
            merged.sort(key=_MERGE_ORDER)
        result = CombinedScanResult(
            raw_matches=merged,
            end_state=self._encode(ends),
            bytes_scanned=bytes_scanned,
        )
        elapsed = time.perf_counter() - started
        self.merges += 1
        self.merge_seconds += elapsed
        if self._merge_hist is not None:
            self._merge_hist.observe(elapsed)
        return result

    def scan(self, data, active_bitmap: int, state: int, limit) -> CombinedScanResult:
        """Scan *data* (up to *limit* bytes) from encoded *state*."""
        if data.__class__ is not bytes:
            data = bytes(data)
        states = self._decode(state)
        tasks = [
            (index, data, active_bitmap, states[index], limit)
            for index in range(len(self._automata))
        ]
        return self._merge(self._run_shards(tasks))

    def _batch_tasks(self, batch, active_bitmap, states, limit):
        return [
            (index, batch, active_bitmap, states[index], limit)
            for index in range(len(self._automata))
        ]

    def _scan_batch(
        self,
        payloads,
        active_bitmap: int,
        state: int,
        limit,
        pipelined: bool = False,
    ):
        """Batched fan-out: each shard crosses the backend once per batch.

        With ``pipelined`` on an arena backend, the batch is split into
        contiguous chunks double-buffered through
        ``scan_chunked_batches`` — results are identical (merge order is
        per payload), only the overlap differs.  Backends without the
        pipeline (serial, process) silently take the plain batched path.
        """
        payloads = [
            payload if payload.__class__ is bytes else bytes(payload)
            for payload in payloads
        ]
        states = self._decode(state)
        if (
            pipelined
            and len(payloads) > 1
            and self._backend.supports_pipelined
        ):
            return self._scan_batch_pipelined(
                payloads, active_bitmap, states, limit
            )
        batch = tuple(payloads)
        tasks = self._batch_tasks(batch, active_bitmap, states, limit)
        per_shard = self._run_batches(tasks, len(payloads))
        # per_shard[shard][payload] -> raw tuple; merge column-wise.
        return [
            self._merge([shard_results[row] for shard_results in per_shard])
            for row in range(len(payloads))
        ]

    def _scan_batch_pipelined(self, payloads, active_bitmap, states, limit):
        """Double-buffered batched fan-out (see :meth:`_scan_batch`).

        A mid-pipeline failure reruns the *entire* batch serially: chunk
        results are only consumed on full success, so the fallback can
        neither lose nor duplicate matches.
        """
        count = len(payloads)
        chunk_count = min(_PIPELINE_CHUNKS, count)
        bounds = [
            (count * index) // chunk_count for index in range(chunk_count + 1)
        ]
        chunks = [
            self._batch_tasks(
                tuple(payloads[start:stop]), active_bitmap, states, limit
            )
            for start, stop in zip(bounds, bounds[1:])
        ]
        try:
            # supports_pipelined (checked by the caller) is the backend's
            # promise that it satisfies PipelinedShardBackend.
            pipelined_backend = cast("PipelinedShardBackend", self._backend)
            per_chunk = pipelined_backend.scan_chunked_batches(chunks)
        except Exception as error:
            self._fall_back(error)
            batch = tuple(payloads)
            tasks = self._batch_tasks(batch, active_bitmap, states, limit)
            per_chunk = [self._backend.scan_shard_batches(tasks)]
        self._count_scans(count)
        results = []
        for per_shard in per_chunk:
            for row in range(len(per_shard[0])):
                results.append(
                    self._merge(
                        [shard_results[row] for shard_results in per_shard]
                    )
                )
        return results

    def _shutdown(self) -> None:
        self._backend.shutdown()


class ShardedAutomaton:
    """K combined sub-automatons behind the CombinedAutomaton surface.

    Mirrors every method the scanner, instance and telemetry layers use on
    :class:`~repro.core.combined.CombinedAutomaton` (scan, resolve, match
    tables, bitmaps, stats, scan cache), so a
    :class:`~repro.core.scanner.VirtualScanner` works on either without
    knowing which it holds.  ``kernel_name`` is always ``"sharded"``;
    ``shard_kernel_name`` is the per-shard kernel family.
    """

    kernel_name = SHARDED_KERNEL_NAME

    def __init__(
        self,
        pattern_sets: "Mapping[int, Iterable[Pattern]]",
        num_shards: "int | None" = None,
        *,
        plan: "ShardPlan | None" = None,
        layout: str = "sparse",
        shard_kernel: str = "flat",
        backend: str = "serial",
        scan_cache_size: int = 0,
        workers: "int | None" = None,
        pipelined: bool = False,
        strategy: str = "cost",
        seed: int = 0,
    ) -> None:
        if shard_kernel not in KERNEL_NAMES:
            raise ValueError(
                f"unknown shard kernel {shard_kernel!r}; "
                f"expected one of {KERNEL_NAMES}"
            )
        if backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown shard backend {backend!r}; "
                f"expected one of {BACKEND_NAMES}"
            )
        if plan is None:
            if num_shards is None:
                raise ValueError("either num_shards or plan is required")
            plan = ShardPlan.build(
                pattern_sets, num_shards, strategy=strategy, seed=seed
            )
        self.plan = plan
        self.layout = layout
        self.shard_kernel_name = shard_kernel
        self.backend_name = backend
        self._workers = workers
        #: Default for ``scan_batch``'s ``pipelined`` argument (arena
        #: backends only; others ignore it).
        self.pipelined = bool(pipelined)
        self.middlebox_ids = sorted(pattern_sets)
        self._middlebox_set = frozenset(self.middlebox_ids)
        bitmap = 0
        for middlebox_id in self.middlebox_ids:
            if middlebox_id < 0:
                raise ValueError(f"negative middlebox id: {middlebox_id}")
            bitmap |= 1 << middlebox_id
        self.all_middleboxes_bitmap = bitmap

        subsets = plan.subset_pattern_sets(pattern_sets)
        self.shards = [
            CombinedAutomaton(subset, layout=layout, kernel=shard_kernel)
            for subset in subsets
        ]
        self._specs = tuple(
            make_shard_spec(subset, layout, shard_kernel) for subset in subsets
        )
        offsets = []
        total_accepting = 0
        for automaton in self.shards:
            offsets.append(total_accepting)
            total_accepting += automaton.num_accepting
        self._offsets = offsets
        self.num_accepting = total_accepting
        self.num_distinct_patterns = sum(
            automaton.num_distinct_patterns for automaton in self.shards
        )

        self._kernel = ShardedKernel(
            self.shards,
            offsets,
            backend=backend,
            specs=self._specs,
            workers=workers,
        )
        #: The product-DFA state count (the encoded-state value space).
        self.num_states = 1
        for automaton in self.shards:
            self.num_states *= automaton.num_states
        self.root = self._kernel._root_state()

        self.scan_cache = ScanCache.of_size(scan_cache_size)

    # --- accept-state bookkeeping -----------------------------------------

    def _locate(self, accept_state: int) -> "tuple[CombinedAutomaton, int]":
        """The owning shard automaton and shard-local id of an accept state."""
        if not 0 <= accept_state < self.num_accepting:
            raise IndexError(f"accepting state out of range: {accept_state}")
        shard = bisect_right(self._offsets, accept_state) - 1
        return self.shards[shard], accept_state - self._offsets[shard]

    def is_accepting(self, state: int) -> bool:
        """The constant-compare accept test (valid for raw-match states)."""
        return state < self.num_accepting

    def match_entry(self, accept_state: int) -> tuple:
        """``(middlebox id, pattern id)`` pairs for a global accept state."""
        automaton, local = self._locate(accept_state)
        return automaton.match_entry(local)

    def match_entry_with_lengths(self, accept_state: int) -> tuple:
        """Pairs zipped with their pattern lengths (stateless pruning)."""
        automaton, local = self._locate(accept_state)
        return automaton.match_entry_with_lengths(local)

    def bitmap_of_state(self, accept_state: int) -> int:
        """The middlebox bitmap stored at a global accept state."""
        automaton, local = self._locate(accept_state)
        return automaton.bitmap_of_state(local)

    def resolve(self, accept_state: int, active_bitmap: int) -> list:
        """Filter a state's match entry down to the active middleboxes."""
        automaton, local = self._locate(accept_state)
        return automaton.resolve(local, active_bitmap)

    def bitmask_of(self, middlebox_ids: "Iterable[int]") -> int:
        """The active-middlebox bitmap for a set of middlebox ids."""
        known = self._middlebox_set
        bitmap = 0
        for middlebox_id in middlebox_ids:
            if middlebox_id not in known:
                raise KeyError(f"unknown middlebox id: {middlebox_id}")
            bitmap |= 1 << middlebox_id
        return bitmap

    # --- scanning ----------------------------------------------------------

    def select_kernel(self, kernel: str) -> None:
        """Install a per-shard kernel family (``"sharded"`` is a no-op)."""
        if kernel == SHARDED_KERNEL_NAME:
            return
        if kernel not in KERNEL_NAMES:
            raise ValueError(
                f"unknown kernel {kernel!r}; expected one of "
                f"{KERNEL_NAMES + (SHARDED_KERNEL_NAME,)}"
            )
        old = self._kernel
        for automaton in self.shards:
            automaton.select_kernel(kernel)
        self.shard_kernel_name = kernel
        self._specs = tuple(
            (spec[0], spec[1], kernel) for spec in self._specs
        )
        self._kernel = ShardedKernel(
            self.shards,
            self._offsets,
            backend=self.backend_name,
            specs=self._specs,
            workers=self._workers,
        )
        old._shutdown()
        if self.scan_cache is not None:
            self.scan_cache.clear()

    def scan(
        self,
        data: bytes,
        active_bitmap: "int | None" = None,
        state: "int | None" = None,
        limit: "int | None" = None,
    ) -> CombinedScanResult:
        """Scan *data* across every shard and merge (see the module doc)."""
        if state is None:
            state = self.root
        if active_bitmap is None:
            active_bitmap = self.all_middleboxes_bitmap
        cache = self.scan_cache
        if cache is None:
            return self._kernel.scan(data, active_bitmap, state, limit)
        payload = data if data.__class__ is bytes else bytes(data)
        key = (payload, active_bitmap, state, limit)
        cached = cache.get(key)
        if cached is not None:
            return CombinedScanResult(
                raw_matches=cached.raw_matches,
                end_state=cached.end_state,
                bytes_scanned=cached.bytes_scanned,
            )
        result = self._kernel.scan(payload, active_bitmap, state, limit)
        cache.put(key, result)
        return result

    def scan_batch(
        self,
        payloads,
        active_bitmap: "int | None" = None,
        state: "int | None" = None,
        limit: "int | None" = None,
        pipelined: "bool | None" = None,
    ) -> "list[CombinedScanResult]":
        """Scan a batch of payloads, one backend round-trip per shard.

        All payloads start from the same *state* (the root by default) —
        the batched path exists for independent-packet throughput, where
        per-payload pool dispatch would dominate.  Results come back in
        payload order; the scan cache is bypassed.  ``pipelined``
        (defaulting to the constructor flag) double-buffers the batch
        through two arena regions on backends that support it.
        """
        if state is None:
            state = self.root
        if active_bitmap is None:
            active_bitmap = self.all_middleboxes_bitmap
        if pipelined is None:
            pipelined = self.pipelined
        return self._kernel._scan_batch(
            payloads, active_bitmap, state, limit, pipelined=pipelined
        )

    # --- telemetry and lifecycle ------------------------------------------

    def bind_telemetry(self, hub, instance_name: str) -> None:
        """Publish per-shard scan counters, the merge-time histogram and
        the arena backend's gauges/counters into *hub*'s registry, and
        route pool-failure events to its fault timeline."""
        registry = hub.registry
        kernel = self._kernel
        kernel._shard_counters = [
            registry.counter(
                "dpi_shard_scans_total", instance=instance_name, shard=index
            )
            for index in range(len(self.shards))
        ]
        kernel._merge_hist = registry.histogram(
            "dpi_shard_merge_seconds", instance=instance_name
        )

        # Arena telemetry: the callbacks read through ``kernel._backend``
        # so a fallback to serial makes them report zero instead of a
        # drained arena's stale numbers.
        def arena_occupancy() -> float:
            return float(getattr(kernel._backend, "occupied_bytes", 0))

        def queue_depth() -> float:
            probe = getattr(kernel._backend, "descriptor_queue_depth", None)
            return float(probe()) if probe is not None else 0.0

        registry.gauge_callback(
            "dpi_shard_arena_bytes", arena_occupancy, instance=instance_name
        )
        registry.gauge_callback(
            "dpi_shard_descriptor_queue_depth",
            queue_depth,
            instance=instance_name,
        )
        backend = kernel._backend
        if hasattr(backend, "copy_counter"):
            backend.copy_counter = registry.counter(
                "dpi_shard_copy_bytes_avoided_total", instance=instance_name
            )

        def on_pool_failure(error: BaseException) -> None:
            hub.record_fault(
                "shard_pool_failure",
                instance_name,
                phase="recover",
                detail=f"fell back to serial: {type(error).__name__}",
            )

        kernel._on_pool_failure = on_pool_failure

    @property
    def shard_scan_counts(self) -> "tuple[int, ...]":
        """Scans executed per shard since construction."""
        return tuple(self._kernel.shard_scans)

    @property
    def active_backend_name(self) -> str:
        """The backend currently executing scans (reflects fallback)."""
        return self._kernel._backend.name

    @property
    def pool_fallbacks(self) -> int:
        """Times the process pool failed and execution fell back to serial."""
        return self._kernel.fallback_count

    def shutdown(self) -> None:
        """Release the execution backend (drains worker pools; the
        zerocopy backend also unlinks its shared-memory arena)."""
        self._kernel._shutdown()

    @property
    def stats(self) -> AutomatonStats:
        """Aggregate size statistics over every shard."""
        shard_stats = [automaton.stats for automaton in self.shards]
        return AutomatonStats(
            num_patterns=self.num_distinct_patterns,
            num_states=sum(stat.num_states for stat in shard_stats),
            num_accepting_states=self.num_accepting,
            num_trie_edges=sum(stat.num_trie_edges for stat in shard_stats),
            layout=self.layout,
            memory_bytes=sum(stat.memory_bytes for stat in shard_stats),
        )
