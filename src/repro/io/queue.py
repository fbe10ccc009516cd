"""Per-device NCQ-style submission queue with measured service times.

One :class:`DeviceQueue` fronts one device (all of a Salamander SSD's
minidisk volumes share it — the NCQ is a device resource). The queue
does two jobs:

1. **Dispatch.** Device method calls happen *inside* ``submit`` (or
   ``execute``), in submission order, through exactly the same methods
   direct callers would use — so with coalescing off the data path,
   RNG draw order and ``_audit_fastpath`` state are bit-identical to
   calling the device directly (the conformance suite asserts this).
   Errors raise synchronously from ``submit``/``execute``, preserving
   direct-call exception semantics.

2. **Time accounting.** The queue keeps a device-local virtual clock
   in microseconds and models the device as ``c`` parallel channel
   servers (``c`` = the chip's channel count). Each request is placed
   on the earliest-free server; its *service time* is measured from
   the chip's ``channel_busy_us`` bookkeeping (the per-channel
   makespan the request added — multi-channel parallelism inside one
   request shortens its service, it does not contend across requests),
   and its *wait* is however long the server was still busy with
   earlier requests. Closed-loop callers (the cluster) submit at the
   current clock, so waits are zero and latency equals measured
   service; open-loop harnesses pass explicit ``at_us`` arrival times
   and queueing delay emerges — that is what the M/D/c claim check
   validates against :func:`repro.models.queueing.mdc_latency_us`.

Completion state is columnar: dispatches append one row to a
column-array log (submit/start/end/work times, merged counts, plus
object columns for request/result/error), and the in-flight window and
done list are deques of *row indices* — completion ordering is index
ordering. Scalar :class:`~repro.io.request.IOCompletion` objects are
materialised only at the API boundary (``execute``'s return, ``poll``,
traced requests), which keeps the per-request object churn off the hot
path. The batch entry point :meth:`DeviceQueue.execute_vector` goes
further: it dispatches a whole :class:`~repro.io.vector.IOVector` with
no per-member request or completion objects at all (a sampled member
gets its own for its trace record), routing runs of point reads
through the device's ``read_batch`` kernel when that preserves timing
bit-identity (see ``timed_batch_reads``). All three entry points share
one per-request kernel, so their timing columns agree bit for bit.

``depth`` bounds the in-flight window like a real NCQ: submitting into
a full queue first retires the oldest in-flight completion and clamps
the newcomer's arrival to that completion time (host-side
backpressure).

Coalescing (``coalesce=True``) merges a submitted request into a
staged contiguous neighbour of the same kind before dispatch. It
changes physical access patterns (merged reads sense each touched
fPage once across the *merged* range), so it is opt-out of the
bit-identity contract and defaults off. Deadline accounting stays
per-member through a merge: the queue remembers every absorbed
member's deadline and counts one miss per member the merged dispatch
finished late for (the completion's ``deadline_missed`` flag keeps the
min-deadline semantics — set iff at least one member missed).
"""

from __future__ import annotations

from collections import deque
from functools import partial

from repro import context
from repro.errors import ConfigError, UncorrectableError
from repro.io.protocols import device_kind_of
from repro.io.request import IOCompletion, IORequest
from repro.io.vector import (
    OP_CODES,
    OP_FLUSH,
    OP_NAMES,
    OP_READ,
    OP_READ_RANGE,
    OP_TRIM,
    OP_TRIM_RANGE,
    OP_WRITE,
    CompletionVector,
    IOVector,
)
from repro.obs.instruments import io_instruments

# Re-exported for callers that predate the stats split; QueueStats is
# part of the queue's public surface.
from repro.io.queue_stats import QueueStats

#: Upper bound on LBAs a coalesced request may span.
MAX_MERGE_LBAS = 1024

#: Minimum run of consecutive point reads worth routing through the
#: device's ``read_batch`` kernel inside ``execute_vector``.
_READ_RUN_MIN = 2

_MERGEABLE_OPS = ("read_range", "trim_range", "write")


class _CompletionLog:
    """Column store for dispatched completions, addressed by index.

    Rows are appended per dispatch and identified by a monotone index
    (``base`` + column position); the queue's in-flight window and done
    list order these indices, and :meth:`materialise` builds the scalar
    :class:`IOCompletion` lazily (cached, so repeated lookups return
    the same object). ``clear`` drops all rows once every index has
    been consumed, keeping the columns sized to the live window.
    """

    __slots__ = ("base", "next", "request", "result", "error", "submit",
                 "start", "end", "work", "merged", "made")

    def __init__(self) -> None:
        self.base = 0
        self.next = 0
        self.request: list[IORequest] = []
        self.result: list[list[bytes] | None] = []
        self.error: list[Exception | None] = []
        self.submit: list[float] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.work: list[float] = []
        self.merged: list[int] = []
        self.made: list[IOCompletion | None] = []

    def append(self, request: IORequest, result, error, submit: float,
               start: float, end: float, work: float,
               merged: int) -> int:
        idx = self.next
        self.next = idx + 1
        self.request.append(request)
        self.result.append(result)
        self.error.append(error)
        self.submit.append(submit)
        self.start.append(start)
        self.end.append(end)
        self.work.append(work)
        self.merged.append(merged)
        self.made.append(None)
        return idx

    def end_us(self, idx: int) -> float:
        return self.end[idx - self.base]

    def error_of(self, idx: int) -> Exception | None:
        return self.error[idx - self.base]

    def materialise(self, idx: int) -> IOCompletion:
        i = idx - self.base
        made = self.made[i]
        if made is None:
            error = self.error[i]
            made = IOCompletion(
                request=self.request[i],
                status="error" if error is not None else "ok",
                result=self.result[i], error=error,
                submit_us=self.submit[i], start_us=self.start[i],
                end_us=self.end[i], work_us=self.work[i],
                merged=self.merged[i])
            self.made[i] = made
        return made

    def clear(self) -> None:
        self.base = self.next
        self.request.clear()
        self.result.clear()
        self.error.clear()
        self.submit.clear()
        self.start.clear()
        self.end.clear()
        self.work.clear()
        self.merged.clear()
        self.made.clear()


class DeviceQueue:
    """Submission queue and service-time meter for one block device.

    Every request runs through one per-request kernel, whichever entry
    point it came in by (``submit``, ``execute`` or a member of
    ``execute_vector``): :meth:`_serve` calls the device and measures
    the chip time the call took, and :meth:`_complete` places the
    request on a channel server, advances the clock and records stats,
    metrics, deadlines and SLO observations.

    Args:
        device: any :class:`repro.io.protocols.BlockDevice`.
        depth: in-flight window (>= 1).
        coalesce: merge contiguous neighbours before dispatch (changes
            physical access patterns; see module docstring).
        device_kind: metric label override; defaults to the device's
            ``device_kind`` attribute or lower-cased class name.
        keep_latencies: record every completion latency in
            ``stats.latencies_us`` (percentile analysis in harnesses;
            off by default to keep long runs bounded).
    """

    def __init__(self, device, depth: int = 8, coalesce: bool = False,
                 device_kind: str | None = None,
                 keep_latencies: bool = False) -> None:
        if depth < 1:
            raise ConfigError(f"depth must be >= 1, got {depth!r}")
        self.device = device
        self.depth = depth
        self.coalesce = coalesce
        self.keep_latencies = keep_latencies
        self.device_kind = device_kind or device_kind_of(device)
        chip = getattr(device, "chip", None)
        self._chip = chip
        geometry = getattr(chip, "geometry", None)
        self.channels = int(getattr(geometry, "channels", 1) or 1)
        self._servers = range(self.channels)
        #: Device-local virtual clock (us). Monotone; advanced by
        #: arrivals, never by service (servers run ahead of the clock).
        self.clock_us = 0.0
        self._channel_free = [0.0] * self.channels
        self._log = _CompletionLog()
        self._inflight: deque[int] = deque()
        self._done: deque[int] = deque()
        self._staged: IORequest | None = None
        self._staged_merged = 1
        self._staged_deadlines: list[float | None] | None = None
        self._next_tag = 0
        self.stats = QueueStats()
        self._instr = io_instruments(self.device_kind)
        #: op name -> (latency observe, wait observe, request count inc).
        self._op_children: dict[str, tuple] = {}
        # Request tracing / SLO tracking bind at construction, like
        # fault injection: None unless bound, one identity test on the
        # hot path when off.
        ctx = context.current()
        self._reqtrace = ctx.reqtrace
        self._rt_sampler = (self._reqtrace.sampler_for(self.device_kind)
                            if self._reqtrace is not None else None)
        self._slo = ctx.slo
        if ctx.metrics is not None:
            ctx.metrics.add_collect_hook(
                partial(_publish_miss_ratio, self._instr),
                key=("repro_io_deadline_miss_ratio", self.device_kind))

    # -- submission -----------------------------------------------------------

    def submit(self, request: IORequest,
               at_us: float | None = None) -> IORequest:
        """Submit one request; dispatches eagerly (or stages it when
        coalescing). Dispatch errors raise here, exactly as a direct
        device call would; the errored completion is still recorded
        and visible to :meth:`poll`.
        """
        self._accept(request)
        if self.coalesce:
            if self._try_merge(request, at_us):
                return request
            self._flush_staged()
            self._staged = request
            self._staged_merged = 1
            self._staged_deadlines = [request.deadline_us]
            request.submit_us = self._arrival(at_us)
            return request
        self._post(self._dispatch(request, at_us))
        return request

    def execute(self, request: IORequest,
                at_us: float | None = None) -> IOCompletion:
        """Submit synchronously and return the completion now.

        Any staged request dispatches first (ordering), then this one;
        its completion is consumed (it will not appear in ``poll``).
        Errors re-raise, preserving direct-call semantics.
        """
        self._accept(request)
        self._flush_staged()
        completion = self._log.materialise(self._dispatch(request, at_us))
        self._maybe_trim()
        self._set_inflight_gauge()
        if completion.error is not None:
            raise completion.error
        return completion

    def execute_vector(self, vec: IOVector) -> CompletionVector:
        """Dispatch a whole :class:`IOVector` synchronously (closed loop).

        Semantically a per-member :meth:`execute` loop with each
        member's error *caught* and recorded on its completion instead
        of aborting the batch — exactly the device state a caller
        looping ``try: execute(...) except`` would leave behind, which
        is how the batched==scalar equivalence tests compare the two
        paths. The ``at_us`` column is ignored: every member arrives at
        the device clock, like ``execute(request)``.

        Members dispatch straight from the vector's columns through the
        per-request kernel, with no request or completion objects.
        Request tracing is a per-member hook: a sampled member gets its
        own request object and trace context, the rest stay columnar.
        Runs of >= 2 flat point reads go through the device's
        ``read_batch`` kernel when the device declares
        ``timed_batch_reads`` and neither a fault injector nor a
        request tracer is bound.
        """
        n = len(vec)
        self._flush_staged()
        tag0 = self._next_tag
        if n == 0:
            return CompletionVector(vec, tag0, [], [], [], [], [], [])
        self._next_tag += n
        self.stats.submitted += n
        # NCQ backpressure, hoisted: vector members are consumed
        # synchronously (they never occupy the window), so one drain at
        # entry leaves the window below ``depth`` for the whole batch —
        # the per-member loop would find the same state.
        arrival = self._admit(self.clock_us)
        device = self.device
        chip = self._chip
        sampler = self._rt_sampler
        ops = vec.op[:n].tolist()
        lbas = vec.lba[:n].tolist()
        counts = vec.count[:n].tolist()
        mdisks = vec.mdisk_id[:n].tolist()
        streams = vec.stream[:n].tolist()
        deadlines = vec.deadline_us[:n].tolist()
        payload_col = vec.payloads
        submit_col = [0.0] * n
        start_col = [0.0] * n
        end_col = [0.0] * n
        work_col = [0.0] * n
        results: list = [None] * n
        errors: list = [None] * n
        n_lbas = getattr(device, "n_lbas", None)
        batch_read = (
            getattr(device, "read_batch", None)
            if (sampler is None and n_lbas is not None
                and getattr(device, "timed_batch_reads", False)
                and getattr(device, "_faults", None) is None
                and (chip is None
                     or getattr(chip, "_faults", None) is None))
            else None)
        serve = self._serve
        complete = self._complete
        i = 0
        while i < n:
            op = ops[i]
            if (batch_read is not None and op == OP_READ
                    and mdisks[i] < 0 and 0 <= lbas[i] < n_lbas):
                j = i + 1
                while (j < n and ops[j] == OP_READ and mdisks[j] < 0
                       and 0 <= lbas[j] < n_lbas):
                    j += 1
                if j - i >= _READ_RUN_MIN:
                    run = j - i
                    svc = [0.0] * run
                    wrk = [0.0] * run
                    try:
                        batch = batch_read(lbas[i:j], service_out=svc,
                                           work_out=wrk)
                    except Exception:
                        # Liveness gates raise before any member runs
                        # (reads cannot change device health); replay
                        # the run member by member so each completion
                        # records the error the scalar loop would see.
                        batch = None
                    if batch is not None:
                        for k in range(run):
                            res = batch[k]
                            m = i + k
                            if isinstance(res, UncorrectableError):
                                errors[m] = res
                            else:
                                results[m] = [res]
                            submit_col[m] = arrival
                            start_col[m], end_col[m] = complete(
                                "read", arrival, svc[k], wrk[k],
                                errors[m], deadlines[m], streams[m])
                            work_col[m] = wrk[k]
                            arrival = self.clock_us
                        i = j
                        continue
            ctx = None
            if sampler is not None and sampler.sample():
                request = vec.request(i)
                request.tag = tag0 + i
                request.submit_us = arrival
                ctx = request.trace = self._reqtrace.begin()
            result, error, service, work, busy = serve(
                op, lbas[i], counts[i], payload_col[i], mdisks[i],
                streams[i], ctx)
            start, end = complete(OP_NAMES[op], arrival, service, work,
                                  error, deadlines[i], streams[i])
            submit_col[i] = arrival
            start_col[i] = start
            end_col[i] = end
            work_col[i] = work
            results[i] = result
            errors[i] = error
            if ctx is not None:
                request.trace = None
                self._reqtrace.finish(ctx, IOCompletion(
                    request=request,
                    status="error" if error is not None else "ok",
                    result=result, error=error, submit_us=arrival,
                    start_us=start, end_us=end, work_us=work),
                    self.device_kind, busy + work)
            arrival = self.clock_us
            i += 1
        self._set_inflight_gauge()
        return CompletionVector(vec, tag0, submit_col, start_col,
                                end_col, work_col, results, errors)

    def poll(self) -> list[IOCompletion]:
        """Drain and return every finished completion (oldest first)."""
        self._flush_staged()
        log = self._log
        out = [log.materialise(i) for i in self._done]
        out.extend(log.materialise(i) for i in self._inflight)
        self._done.clear()
        self._inflight.clear()
        log.clear()
        self._set_inflight_gauge()
        return out

    def flush(self) -> None:
        """Dispatch any staged (coalesced) request."""
        self._flush_staged()

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    # -- internals ------------------------------------------------------------

    def _maybe_trim(self) -> None:
        if not self._inflight and not self._done:
            self._log.clear()

    def _arrival(self, at_us: float | None) -> float:
        if at_us is None:
            return self.clock_us
        return max(at_us, 0.0)

    def _accept(self, request: IORequest) -> None:
        """Tag and count an incoming request; maybe sample it."""
        request.tag = self._next_tag
        self._next_tag += 1
        self.stats.submitted += 1
        # The sample decision is a pure function of (tracer seed,
        # device kind, per-queue submission index) — independent of
        # wall clock, process layout and other queues, which is what
        # keeps artifacts byte-identical across ``--jobs``.
        if (self._rt_sampler is not None and self._rt_sampler.sample()
                and request.trace is None):
            request.trace = self._reqtrace.begin()

    def _admit(self, arrival: float) -> float:
        """NCQ backpressure: a full window blocks the host until the
        oldest in-flight completion frees a slot."""
        inflight = self._inflight
        while len(inflight) >= self.depth:
            oldest = inflight.popleft()
            arrival = max(arrival, self._log.end_us(oldest))
            self._done.append(oldest)
        return arrival

    def _try_merge(self, request: IORequest,
                   at_us: float | None) -> bool:
        staged = self._staged
        if staged is None or at_us is not None:
            return False
        if request.op != staged.op or request.op not in _MERGEABLE_OPS:
            return False
        if request.mdisk_id != staged.mdisk_id:
            return False
        if request.stream != staged.stream:
            return False
        if request.lba != staged.lba + staged.count:
            return False
        if staged.count + request.count > MAX_MERGE_LBAS:
            return False
        staged.count += request.count
        if staged.op == "write":
            staged.payloads.extend(request.payloads)
        if self._staged_deadlines is None:
            self._staged_deadlines = [staged.deadline_us]
        self._staged_deadlines.append(request.deadline_us)
        deadlines = [d for d in (staged.deadline_us, request.deadline_us)
                     if d is not None]
        staged.deadline_us = min(deadlines) if deadlines else None
        staged.tag = request.tag  # completion reports the latest tag
        if request.trace is not None and staged.trace is None:
            # A sampled request absorbed into a neighbour hands its
            # context over: the merged dispatch is what it experienced.
            staged.trace = request.trace
        self._staged_merged += 1
        self.stats.merged += 1
        self._instr.merged.inc()
        return True

    def _flush_staged(self) -> None:
        staged = self._staged
        if staged is None:
            return
        self._staged = None
        merged = self._staged_merged
        member_deadlines = self._staged_deadlines
        self._staged_merged = 1
        self._staged_deadlines = None
        self._post(self._dispatch(staged, staged.submit_us, merged=merged,
                                  member_deadlines=member_deadlines))

    def _post(self, idx: int) -> None:
        """Window a dispatched row; re-raise its error like a direct call."""
        self._inflight.append(idx)
        self._set_inflight_gauge()
        error = self._log.error_of(idx)
        if error is not None:
            raise error

    def _dispatch(self, request: IORequest, at_us: float | None,
                  merged: int = 1,
                  member_deadlines: list | None = None) -> int:
        """Run one request object through the kernel; returns its row.

        The row is logged but not windowed: ``submit`` posts it to the
        in-flight window, ``execute`` consumes it at once.
        """
        arrival = self._admit(self._arrival(at_us))
        request.submit_us = arrival
        ctx = request.trace if self._reqtrace is not None else None
        mdisk = request.mdisk_id
        result, error, service, work, busy = self._serve(
            OP_CODES[request.op], request.lba, request.count,
            request.payloads, -1 if mdisk is None else mdisk,
            request.stream, ctx)
        start, end = self._complete(
            request.op, arrival, service, work, error, request.deadline_us,
            request.stream, at_us is None, member_deadlines)
        log = self._log
        idx = log.append(request, result, error, arrival, start, end,
                         work, merged)
        if ctx is not None:
            request.trace = None  # consumed; records outlive contexts
            self._reqtrace.finish(ctx, log.materialise(idx),
                                  self.device_kind, busy + work)
        return idx

    def _serve(self, op: int, lba: int, count: int, payloads, mdisk: int,
               stream: int, ctx) -> tuple:
        """Call the device for one request and measure the call.

        ``mdisk < 0`` addresses a flat device. Device errors are caught
        and returned, never raised. Returns ``(result, error, service,
        work, busy_before)``: *work* is the chip busy time the call
        added (summed across channels), *service* the largest per-channel
        increment (multi-channel parallelism inside one request shortens
        its service), *busy_before* the chip busy ledger before the call.
        A sampled request's trace context is active for the call.
        """
        device = self.device
        chip = self._chip
        busy_before = 0.0
        if chip is not None:
            busy_before = chip.stats.busy_us
            chan_before = list(chip.channel_busy_us)
        if ctx is not None:
            ctx.activate(busy_before)
            self._reqtrace.active = ctx
        result = error = None
        try:
            if op == OP_READ:
                result = ([device.read(lba)] if mdisk < 0
                          else [device.read(mdisk, lba)])
            elif op == OP_WRITE:
                if mdisk >= 0:
                    for off, data in enumerate(payloads):
                        device.write(mdisk, lba + off, data)
                elif stream:
                    for off, data in enumerate(payloads):
                        device.write(lba + off, data, stream=stream)
                else:
                    # Exactly the plain per-LBA call shape (devices like
                    # BaselineSSD take no stream argument).
                    for off, data in enumerate(payloads):
                        device.write(lba + off, data)
            elif op == OP_READ_RANGE:
                result = (device.read_range(lba, count) if mdisk < 0
                          else device.read_range(mdisk, lba, count))
            elif op == OP_TRIM:
                if mdisk < 0:
                    device.trim(lba)
                else:
                    device.trim(mdisk, lba)
            elif op == OP_TRIM_RANGE:
                if mdisk < 0:
                    device.trim_range(lba, count)
                else:
                    for off in range(count):
                        device.trim(mdisk, lba + off)
            elif op == OP_FLUSH:
                device.flush()
            else:  # pragma: no cover - validation rejects these
                raise ConfigError(f"unhandled op code {op!r}")
        except Exception as exc:  # noqa: BLE001 - recorded per request
            error = exc
        if ctx is not None:
            self._reqtrace.active = None
        if chip is None:
            return result, error, 0.0, 0.0, busy_before
        chan_after = chip.channel_busy_us
        service = max((chan_after[c] - chan_before[c]
                       for c in range(len(chan_before))), default=0.0)
        return (result, error, service, chip.stats.busy_us - busy_before,
                busy_before)

    def _complete(self, op: str, arrival: float, service: float,
                  work: float, error: Exception | None,
                  deadline: float | None, stream: int,
                  closed_loop: bool = True,
                  member_deadlines: list | None = None) -> tuple:
        """Place one served request and account it; returns
        ``(start, end)``.

        The request takes the earliest-free channel server; its wait is
        however long that server was still busy. A ``nan`` deadline, like
        ``None``, means none. Deadline accounting is per *member*: a
        coalesced dispatch (``member_deadlines`` set) that finishes late
        counts one miss per absorbed request whose own deadline it blew.
        """
        channel_free = self._channel_free
        server = min(self._servers, key=channel_free.__getitem__)
        start = max(arrival, channel_free[server])
        end = start + service
        channel_free[server] = end
        # Closed-loop callers block on the completion, so the device
        # clock advances with it (hence their next arrival never finds
        # the server busy: waits are zero by construction). Open-loop
        # callers own time via ``at_us``; the clock only tracks the
        # latest arrival so a late stamp cannot run it backwards.
        now = end if closed_loop else arrival
        if now > self.clock_us:
            self.clock_us = now
        stats = self.stats
        stats.dispatched += 1
        latency = end - arrival
        wait = start - arrival
        stats.total_latency_us += latency
        stats.total_wait_us += wait
        stats.total_service_us += end - start
        stats.total_work_us += work
        if self.keep_latencies:
            stats.latencies_us.append(latency)
        kids = self._op_children.get(op) or self._bind_op(op)
        kids[0](latency)
        kids[1](wait)
        kids[2]()
        if error is not None:
            stats.errors += 1
            self._instr.errors.inc()
        if member_deadlines is None:
            misses = 1 if deadline is not None and end > deadline else 0
        else:
            misses = sum(1 for d in member_deadlines
                         if d is not None and end > d)
        if misses:
            stats.deadline_misses += misses
            self._instr.deadline_misses.inc(misses)
        if self._slo is not None:
            self._slo.observe(
                end_us=end, latency_us=latency, op=op, stream=stream,
                device_kind=self.device_kind, deadline_missed=misses > 0)
        return start, end

    def _bind_op(self, op: str) -> tuple:
        instr = self._instr
        kind = self.device_kind
        kids = (instr.latency.labels(op=op, device_kind=kind).observe,
                instr.wait.labels(op=op, device_kind=kind).observe,
                instr.requests.labels(op=op, device_kind=kind).inc)
        self._op_children[op] = kids
        return kids

    def _set_inflight_gauge(self) -> None:
        self._instr.inflight.set(len(self._inflight))

    # -- introspection --------------------------------------------------------

    def makespan_us(self) -> float:
        """When the busiest channel server goes idle (virtual time)."""
        return max(self._channel_free)


def _publish_miss_ratio(instr) -> None:
    """Refresh ``repro_io_deadline_miss_ratio`` for one device kind.

    Derived from the kind's shared counters, so it covers every queue
    of that kind (one collect hook per kind, not per queue).
    """
    kind = instr.device_kind
    dispatched = sum(sample["value"] for sample in instr.requests.samples()
                     if sample["labels"]["device_kind"] == kind)
    instr.deadline_miss_ratio.set(
        instr.deadline_misses.value / dispatched if dispatched else 0.0)
