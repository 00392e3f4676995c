"""Zero-copy shared-memory execution backend for the sharded scan pool.

The ``process`` backend (:mod:`repro.core.workers`) pays one pickle of the
*entire payload batch per shard task*: a K-shard batch crosses the pool
boundary K times, and IPC serialization eats the shard win (on one CPU
the pool ran at roughly half the serial fan-out's throughput when it was
last measured; ROADMAP item 2c).  High-rate packet engines never copy
per packet: they pre-allocate buffers and pass descriptors.  This module is
that idiom in Python:

* **Payload arena** — one ``multiprocessing.shared_memory`` segment into
  which a batch's payloads are written exactly once.  Workers map the same
  physical pages, so a payload's bytes exist once regardless of how many
  shards scan it.
* **Persistent workers** — long-lived processes (not a ``Pool``) that build
  every shard automaton once at startup, attach to the arena, and then pull
  compact ``(shard, offset, length, bitmap, state, limit)`` descriptors in
  bursts over per-worker queues.  Only raw match tuples travel back.
* **Double buffering** — :meth:`ZeroCopyBackend.scan_chunked_batches`
  splits the arena into two regions and overlaps the steering/preprocess
  (writing chunk N+1's payloads) with the scanning of chunk N.

Teardown follows a close/join + unlink protocol: workers get a sentinel,
are joined (terminated only if wedged), queues are closed, and the arena
segment is unlinked by the parent — a ``weakref.finalize`` guard repeats
the protocol at interpreter exit so no ``/dev/shm`` segment survives an
unclean shutdown.  Worker death mid-flight raises
:class:`ShardPoolBrokenError`, which the sharded kernel treats exactly like
a pool failure: drain (this module's ``shutdown``) and fall back to serial.
"""

from __future__ import annotations

import itertools
import os
import queue as queue_module
import weakref
from multiprocessing import shared_memory
from typing import Any

from repro.core.workers import automaton_from_spec, get_mp_context

__all__ = [
    "ARENA_NAME_PREFIX",
    "DEFAULT_ARENA_BYTES",
    "ShardPoolBrokenError",
    "ZeroCopyBackend",
]

#: Shared-memory segments are named with this prefix so leak checks (and
#: operators inspecting /dev/shm) can attribute them.
ARENA_NAME_PREFIX = "repro_zc"

#: Initial arena capacity; the arena grows geometrically when a batch
#: needs more (growth only happens with no descriptors in flight).
DEFAULT_ARENA_BYTES = 1 << 20

#: Seconds a worker gets to exit after the shutdown sentinel before it is
#: terminated, and the poll interval while awaiting results.
_JOIN_TIMEOUT = 5.0
_POLL_SECONDS = 0.05

_ARENA_COUNTER = itertools.count()


class ShardPoolBrokenError(RuntimeError):
    """A zero-copy worker died (or errored) with descriptors in flight.

    The sharded kernel catches this like any backend failure: it drains
    the backend and permanently falls back to serial execution, so a scan
    never fails because a worker did.
    """


def _arena_name() -> str:
    """A fresh, attributable segment name (pid + process-local counter)."""
    return f"{ARENA_NAME_PREFIX}_{os.getpid()}_{next(_ARENA_COUNTER)}"


def _create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """Create a named segment, retrying on (unlikely) name collisions."""
    while True:
        try:
            return shared_memory.SharedMemory(
                name=_arena_name(), create=True, size=nbytes
            )
        except FileExistsError:  # pragma: no cover - needs a stale segment
            continue


# --- worker-process side -----------------------------------------------------


def _scan_descriptors(automata, view, descriptors) -> "list[tuple]":
    """Run one descriptor burst against an attached arena view.

    Split out of the worker loop so the in-process unit tests can exercise
    the exact scan path pool children run.  Payloads are handed to the
    shard kernels as memoryview slices of the arena — no copy is made on
    the worker side either (the regex kernel materializes bytes itself
    when it needs C-level scanning).
    """
    out = []
    for shard, offset, length, active_bitmap, state, limit in descriptors:
        result = automata[shard].scan(
            view[offset : offset + length], active_bitmap, state, limit
        )
        out.append((result.raw_matches, result.end_state, result.bytes_scanned))
    return out


def _zerocopy_worker(specs, arena_name, task_queue, result_queue) -> None:
    """Worker main loop: attach once, scan descriptor bursts until told
    to stop.

    Messages: ``("scan", task_id, arena, descriptors)`` runs a burst and
    replies ``(task_id, "ok", raw_results)``; ``("retire", arena)`` closes
    a cached attachment (the parent grew the arena); ``None`` exits.
    Exceptions are reported per task instead of killing the worker.
    """
    automata = [automaton_from_spec(spec) for spec in specs]
    segments: "dict[str, shared_memory.SharedMemory]" = {}

    def attach(name: str):
        segment = segments.get(name)
        if segment is None:
            segment = shared_memory.SharedMemory(name=name)
            segments[name] = segment
        return segment.buf

    try:
        try:
            # Warm-up only: a slow-booting worker can lose the race with
            # arena growth, which unlinks the boot segment before our
            # first task arrives.  The scan path re-attaches by name.
            attach(arena_name)
        except FileNotFoundError:
            pass
        while True:
            message = task_queue.get()
            if message is None:
                break
            if message[0] == "retire":
                segment = segments.pop(message[1], None)
                if segment is not None:
                    segment.close()
                continue
            _, task_id, name, descriptors = message
            try:
                out = _scan_descriptors(automata, attach(name), descriptors)
            except Exception as error:  # pragma: no cover - defensive
                result_queue.put((task_id, "error", repr(error)))
            else:
                result_queue.put((task_id, "ok", out))
    finally:
        for segment in segments.values():
            try:
                segment.close()
            except BufferError:  # pragma: no cover - exported views remain
                pass


# --- parent side --------------------------------------------------------------


class _PoolState:
    """Everything the teardown protocol must release.

    Kept on a separate object so the ``weakref.finalize`` guard can hold
    it without keeping the backend itself alive, and so arena growth can
    swap the segment without re-registering the finalizer.
    """

    def __init__(self) -> None:
        self.processes: "list[Any]" = []
        self.task_queues: "list[Any]" = []
        self.result_queue: "Any" = None
        self.segment: "shared_memory.SharedMemory | None" = None
        self.closed = False


def _teardown(state: _PoolState) -> None:
    """The close/join + unlink protocol (idempotent).

    Sentinel every worker, join (terminate only the wedged), close the
    queues, then close *and unlink* the arena segment.  Every step is
    individually guarded: a half-dead pool must still surrender the
    shared-memory segment.
    """
    if state.closed:
        return
    state.closed = True
    for task_queue in state.task_queues:
        try:
            task_queue.put(None)
        except Exception:  # pragma: no cover - queue already broken
            pass
    for process in state.processes:
        try:
            process.join(timeout=_JOIN_TIMEOUT)
        except (ValueError, AssertionError):
            # start() itself failed: there is no child to reap.
            continue
    for process in state.processes:
        if process.is_alive():  # pragma: no cover - wedged worker
            process.terminate()
            process.join(timeout=_JOIN_TIMEOUT)
    all_queues = list(state.task_queues)
    if state.result_queue is not None:
        all_queues.append(state.result_queue)
    for any_queue in all_queues:
        try:
            any_queue.cancel_join_thread()
            any_queue.close()
        except Exception:  # pragma: no cover - queue already broken
            pass
    segment = state.segment
    state.segment = None
    if segment is not None:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - exported views remain
            pass
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


class ZeroCopyBackend:
    """Shared-memory payload arena + persistent descriptor-pulling workers.

    Satisfies the :class:`~repro.core.workers.ShardBackend` Protocol
    (``scan_shards`` / ``scan_shard_batches`` / ``shutdown``) and — as the
    only ``supports_pipelined`` backend — the
    :class:`~repro.core.workers.PipelinedShardBackend` extension:
    :meth:`scan_chunked_batches`, the double-buffered pipeline the sharded
    kernel's ``pipelined`` mode drives.  Construction is cheap; workers
    and the arena are created lazily on first use.
    """

    name = "zerocopy"
    supports_pipelined = True

    def __init__(
        self,
        specs,
        workers: "int | None" = None,
        arena_bytes: int = DEFAULT_ARENA_BYTES,
    ) -> None:
        self._specs = tuple(specs)
        if workers is not None and workers <= 0:
            raise ValueError(f"worker count must be positive: {workers}")
        if arena_bytes <= 0:
            raise ValueError(f"arena capacity must be positive: {arena_bytes}")
        self._workers = workers
        self._arena_bytes = arena_bytes
        self._state: "_PoolState | None" = None
        self._finalizer = None
        self._sequence = 0
        self._stash: "dict[int, list[tuple]]" = {}
        self._in_flight = 0
        #: Bytes written into the arena by the most recent dispatch (the
        #: occupancy the telemetry gauge reports).
        self.occupied_bytes = 0
        #: Cumulative payload bytes that did NOT cross a pickle boundary:
        #: for every dispatch, (bytes the process backend would have
        #: serialized) minus (bytes written once into the arena).
        self.copy_bytes_avoided = 0
        #: Optional telemetry counter mirroring ``copy_bytes_avoided``
        #: (installed by ``ShardedAutomaton.bind_telemetry``).
        self.copy_counter = None

    # --- sizing ------------------------------------------------------------

    @property
    def workers(self) -> int:
        """The worker-process count the pool runs (or will run) with."""
        if self._workers is not None:
            return self._workers
        return max(1, min(len(self._specs), os.cpu_count() or 1))

    @property
    def arena_name(self) -> "str | None":
        """The live arena segment's name (None before first use)."""
        state = self._state
        if state is None or state.segment is None:
            return None
        return state.segment.name

    @property
    def arena_capacity(self) -> int:
        """The live arena's byte capacity (0 before first use)."""
        state = self._state
        if state is None or state.segment is None:
            return 0
        return state.segment.size

    def descriptor_queue_depth(self) -> int:
        """Descriptors bursts currently sitting in worker queues."""
        state = self._state
        if state is None:
            return 0
        depth = 0
        for task_queue in state.task_queues:
            try:
                depth += task_queue.qsize()
            except NotImplementedError:  # pragma: no cover - macOS only
                return 0
        return depth

    # --- lifecycle ---------------------------------------------------------

    def _ensure_started(self) -> _PoolState:
        state = self._state
        if state is not None and not state.closed:
            return state
        context = get_mp_context()
        state = _PoolState()
        state.segment = _create_segment(self._arena_bytes)
        # Everything between creating the segment and registering the
        # finalizer must tear down on failure: a queue or fork that
        # raises here would otherwise strand the /dev/shm arena and any
        # workers already started (RES001).
        try:
            state.result_queue = context.Queue()
            for _ in range(self.workers):
                state.task_queues.append(context.Queue())
            for task_queue in state.task_queues:
                process = context.Process(
                    target=_zerocopy_worker,
                    args=(
                        self._specs,
                        state.segment.name,
                        task_queue,
                        state.result_queue,
                    ),
                    daemon=True,
                )
                state.processes.append(process)
                process.start()
        except BaseException:
            _teardown(state)
            raise
        self._state = state
        self._finalizer = weakref.finalize(self, _teardown, state)
        return state

    def _ensure_capacity(self, state: _PoolState, nbytes: int) -> None:
        """Grow the arena to at least *nbytes* (no descriptors in flight).

        Workers are told to retire their attachment to the old segment;
        the parent closes and unlinks it immediately — POSIX keeps the
        pages alive until the last close, so a worker that has not yet
        processed its retire message is unaffected.
        """
        segment = state.segment
        assert segment is not None
        if nbytes <= segment.size:
            return
        if self._in_flight:  # pragma: no cover - call sites prevent this
            raise RuntimeError("cannot grow the arena with tasks in flight")
        new_size = max(nbytes, segment.size * 2)
        replacement = _create_segment(new_size)
        # Until the swap lands the replacement has no owner: if telling
        # the workers (or retiring the old segment) raises, release it
        # rather than stranding a second arena in /dev/shm (RES001).
        try:
            for task_queue in state.task_queues:
                task_queue.put(("retire", segment.name))
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
        except BaseException:
            replacement.close()
            try:
                replacement.unlink()
            except FileNotFoundError:  # pragma: no cover - racing cleanup
                pass
            raise
        state.segment = replacement

    def shutdown(self) -> None:
        """Run the close/join + unlink protocol (idempotent)."""
        finalizer = self._finalizer
        self._finalizer = None
        self._state = None
        self._stash.clear()
        self._in_flight = 0
        self.occupied_bytes = 0
        if finalizer is not None:
            finalizer()

    # --- dispatch ----------------------------------------------------------

    def _write_payloads(self, state, payload_lists, base: int) -> dict:
        """Write every distinct payload tuple once, from arena offset
        *base*; returns ``id(payloads) -> [(offset, length), ...]``.

        Distinctness is by object identity: the sharded kernel hands the
        same batch tuple to every shard task, which is exactly the
        sharing this backend exists to exploit.
        """
        segment = state.segment
        buffer = segment.buf
        cursor = base
        descriptors_by_id: "dict[int, list[tuple[int, int]]]" = {}
        for payloads in payload_lists:
            if id(payloads) in descriptors_by_id:
                continue
            spans = []
            for payload in payloads:
                length = len(payload)
                buffer[cursor : cursor + length] = payload
                spans.append((cursor, length))
                cursor += length
            descriptors_by_id[id(payloads)] = spans
        self.occupied_bytes = cursor - base
        return descriptors_by_id

    def _dispatch(self, state, assignments) -> "list[int]":
        """Send one scan message per (worker, descriptors) pair; returns
        the task ids in submission order."""
        arena = state.segment.name
        ids = []
        for worker_index, descriptors in assignments:
            task_id = self._sequence
            self._sequence += 1
            state.task_queues[worker_index % len(state.task_queues)].put(
                ("scan", task_id, arena, descriptors)
            )
            ids.append(task_id)
        self._in_flight += len(ids)
        return ids

    def _await(self, state, ids) -> "list[list[tuple]]":
        """Collect the results for *ids*, in id order.

        Results from other in-flight tasks (the pipelined path overlaps
        two chunks) are stashed.  A dead worker, a worker-reported scan
        error, or a corrupted result pipe raises
        :class:`ShardPoolBrokenError`.
        """
        stash = self._stash
        wanted = set(ids)
        while wanted - stash.keys():
            try:
                task_id, status, payload = state.result_queue.get(
                    timeout=_POLL_SECONDS
                )
            except queue_module.Empty:
                for process in state.processes:
                    if not process.is_alive():
                        raise ShardPoolBrokenError(
                            f"zerocopy worker pid={process.pid} died with "
                            f"descriptors in flight"
                        ) from None
                continue
            except ShardPoolBrokenError:  # pragma: no cover - re-raise
                raise
            except Exception as error:
                raise ShardPoolBrokenError(
                    f"zerocopy result channel broke: {error!r}"
                ) from error
            if status != "ok":
                raise ShardPoolBrokenError(
                    f"zerocopy worker task {task_id} failed: {payload}"
                )
            stash[task_id] = payload
        out = [stash.pop(task_id) for task_id in ids]
        self._in_flight -= len(ids)
        return out

    def _account_avoided(self, written: int, shipped: int) -> None:
        """Record payload bytes that skipped the pickle boundary."""
        avoided = shipped - written
        if avoided <= 0:
            return
        self.copy_bytes_avoided += avoided
        counter = self.copy_counter
        if counter is not None:
            counter.inc(avoided)

    # --- the backend contract ----------------------------------------------

    def scan_shards(self, tasks) -> "list[tuple]":
        """One raw result tuple per ``(shard, data, bitmap, state, limit)``
        task, in task order; each distinct payload is written once."""
        tasks = list(tasks)
        if not tasks:
            return []
        state = self._ensure_started()
        # The sharded kernel hands the *same* payload object to every
        # shard task; write each distinct payload once and fan the
        # (offset, length) extent out across the descriptors.
        distinct: "dict[int, tuple]" = {}
        for task in tasks:
            distinct.setdefault(id(task[1]), (task[1],))
        written = sum(len(single[0]) for single in distinct.values())
        shipped = sum(len(task[1]) for task in tasks)
        self._ensure_capacity(state, written)
        descriptors_by_id = self._write_payloads(
            state, list(distinct.values()), 0
        )
        extent_by_data = {
            data_id: descriptors_by_id[id(single)][0]
            for data_id, single in distinct.items()
        }
        assignments = []
        for index, (shard, data, active_bitmap, start, limit) in enumerate(tasks):
            offset, length = extent_by_data[id(data)]
            assignments.append(
                (index, [(shard, offset, length, active_bitmap, start, limit)])
            )
        results = self._await(state, self._dispatch(state, assignments))
        self._account_avoided(written, shipped)
        return [out[0] for out in results]

    def scan_shard_batches(self, tasks) -> "list[list[tuple]]":
        """One list of raw result tuples per batch task, in task order.

        The batch's payloads are written into the arena exactly once; the
        per-shard tasks ship only descriptor bursts, so a K-shard batch
        crosses the worker boundary as K compact messages instead of K
        pickled copies of every payload.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        state = self._ensure_started()
        batches = [task[1] for task in tasks]
        distinct: "dict[int, Any]" = {}
        for batch in batches:
            distinct.setdefault(id(batch), batch)
        written_bytes = sum(
            len(payload)
            for batch in distinct.values()
            for payload in batch
        )
        shipped_bytes = sum(
            len(payload) for batch in batches for payload in batch
        )
        self._ensure_capacity(state, written_bytes)
        descriptors_by_id = self._write_payloads(state, batches, 0)
        assignments = []
        for index, (shard, batch, active_bitmap, start, limit) in enumerate(tasks):
            burst = [
                (shard, offset, length, active_bitmap, start, limit)
                for offset, length in descriptors_by_id[id(batch)]
            ]
            assignments.append((index, burst))
        results = self._await(state, self._dispatch(state, assignments))
        self._account_avoided(self.occupied_bytes, shipped_bytes)
        return results

    def scan_chunked_batches(self, chunks) -> "list[list[list[tuple]]]":
        """The double-buffered pipeline: scan chunk N while writing N+1.

        *chunks* is a sequence of ``scan_shard_batches`` task lists, each
        covering a contiguous slice of one payload batch.  The arena is
        split into two regions; chunk N's descriptors are dispatched out
        of region ``N % 2`` and, while the workers scan them, the parent
        writes chunk N+1's payloads into the other region.  Returns one
        ``scan_shard_batches``-shaped result list per chunk, in order.
        """
        chunks = [list(chunk) for chunk in chunks]
        if not chunks:
            return []
        state = self._ensure_started()
        chunk_bytes = []
        for chunk in chunks:
            distinct: "dict[int, Any]" = {}
            for task in chunk:
                distinct.setdefault(id(task[1]), task[1])
            chunk_bytes.append(
                sum(
                    len(payload)
                    for batch in distinct.values()
                    for payload in batch
                )
            )
        # Capacity is settled up front, while nothing is in flight: both
        # regions must hold the largest chunk.
        self._ensure_capacity(state, 2 * max(chunk_bytes))
        region_size = state.segment.size // 2
        shipped_total = 0
        written_total = 0
        pending: "list[int] | None" = None
        results: "list[list[list[tuple]]]" = []
        for index, chunk in enumerate(chunks):
            base = (index % 2) * region_size
            descriptors_by_id = self._write_payloads(
                state, [task[1] for task in chunk], base
            )
            written_total += self.occupied_bytes
            assignments = []
            for task_index, (shard, batch, active_bitmap, start, limit) in (
                enumerate(chunk)
            ):
                burst = [
                    (shard, offset, length, active_bitmap, start, limit)
                    for offset, length in descriptors_by_id[id(batch)]
                ]
                assignments.append((task_index, burst))
                shipped_total += sum(length for _, _, length, _, _, _ in burst)
            ids = self._dispatch(state, assignments)
            if pending is not None:
                results.append(self._await(state, pending))
            pending = ids
        if pending is not None:
            results.append(self._await(state, pending))
        self._account_avoided(written_total, shipped_total)
        return results
