"""Deterministic open-loop multi-tenant traffic engine.

ROADMAP item 1 calls for "heavy traffic from millions of users" against
the measured IO pipeline; this module is that traffic source. It drives
many *tenant* streams — each with its own address pattern
(:mod:`repro.workloads.generators` or trace replay via
:mod:`repro.workloads.traces`), its own arrival process
(:mod:`repro.workloads.arrivals`) and its own admission budget —
through the PR 5/8 :class:`repro.io.queue.DeviceQueue` path, and
records the outcome as a canonical ``repro.workloads.engine/v1``
artifact.

Architecture
------------

Tenants shard into **cells**: one device + queue per cell, serving the
tenants whose id is congruent to the cell index. A cell is a pure
function of ``(config, cell, seed)`` — the device seed and every
tenant's RNG derive from :func:`repro.rng.fork_rng` walks keyed on
stable strings, never on worker layout — so
:func:`run_traffic` fans cells out over
:func:`repro.sim.parallel.parallel_map` and the merged artifact is
byte-identical for any ``--jobs`` value (the determinism suite diffs
``--jobs {1, 2, 8}``).

Inside a cell, a single event heap interleaves every tenant:

* **Open-loop** tenants pre-commit to arrival instants drawn from
  their Poisson/MMPP process; a request's latency therefore includes
  real queueing delay (the M/D/c regime the claim rows check).
* **Closed-loop** tenants self-clock: the next request is issued only
  when the previous completion returns (plus ``think_us``). They are
  structurally exempt from admission control — self-throttling *is*
  their admission policy — which the property tests pin.

Admission control
-----------------

Open-loop arrivals pass two gates before submission:

1. **Per-tenant token bucket** — rate ``bucket_rate_factor ×`` the
   tenant's fair share, burst ``bucket_burst`` tokens. A tenant
   bursting beyond its budget is shed or deferred without disturbing
   its neighbours.
2. **Backlog watermark** — when the device queue's virtual backlog
   (``queue.makespan_us() - now``) exceeds ``watermark`` estimated
   service times, the cell is saturated and new arrivals are shed or
   deferred until it drains.

``admission="shed"`` drops the request (counted, never submitted);
``"defer"`` postpones it and retries through the same gates;
``"none"`` disables both gates (NCQ backpressure only). Deferred
requests still pending at the horizon are shed, so the accounting
identity **offered == admitted + shed** holds exactly per tenant —
the artifact validator and the property tests both assert it.

Per-tenant SLOs reuse :mod:`repro.obs.slo` verbatim: the tenant id is
the objective's ``stream`` filter. Each cell replays its completions
(sorted by completion time) through a fresh :class:`SLOEngine`, so
"tenant 7's p99 read latency" is one config line.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass, field, replace

from repro import context
from repro.artifacts import read_json, require_fields, write_json
from repro.errors import ConfigError
from repro.io.probe import _PROBE_ERRORS, BUILD_MODES, build_queue_device
from repro.io.queue import DeviceQueue
from repro.io.request import IORequest
from repro.obs.analyze import interpolated_percentile
from repro.obs.slo import SLOEngine, SLOObjective
from repro.rng import DEFAULT_SEED, fork_rng, make_rng
from repro.workloads.arrivals import (
    ARRIVAL_KINDS,
    DEFAULT_BURSTINESS,
    make_arrivals,
)
from repro.workloads.generators import (
    MixedGenerator,
    OpType,
    SequentialGenerator,
    UniformGenerator,
    ZipfianGenerator,
)

#: Version tag of the traffic artifact document.
ENGINE_SCHEMA = "repro.workloads.engine/v1"

#: Tenant address-pattern classes, in mix order. ``zipfian`` is the
#: 80/20 hotspot configuration (theta 0.99 concentrates ~80 % of
#: accesses on ~20 % of the span; see ``hotspot_mass``).
TENANT_CLASSES = ("sequential", "uniform", "zipfian", "mixed")

#: Admission policies (CLI ``--admission`` values).
ADMISSION_POLICIES = ("none", "shed", "defer")

#: Pilot reads issued to estimate the read service time (staggered
#: offsets average over fPage alignment phases of ``read_span`` reads).
_PILOT_PROBES = 4

#: Fallback service estimate when the pilot read cannot reach flash.
_FALLBACK_SERVICE_US = 100.0


@dataclass(frozen=True)
class EngineConfig:
    """Knobs for one traffic run (identical across cells).

    ``utilisation`` is the *per-cell* operating point: each cell's
    aggregate open-loop arrival rate is
    ``utilisation * channels / service`` with the service time measured
    by a pilot read, so the same config lands every device flavour (and
    every RegenS level) at the same relative load. Values above 1
    deliberately saturate the device — that is the admission-control
    test regime, not an error.
    """

    tenants: int = 64
    duration_us: float = 30_000.0
    arrival: str = "poisson"
    utilisation: float = 0.6
    burstiness: float = DEFAULT_BURSTINESS
    mode: str = "flat"
    level: int = 0
    cells: int = 0
    #: Minimum failure-domain shard count: the resolved cell count is
    #: raised to at least this many cells (still capped at ``tenants``),
    #: so a sharded run gets that many independent units of work for
    #: the fork pool. 0 leaves the auto-by-population tiers alone.
    #: Like ``cells``, part of the config/artifact — never ``--jobs``.
    shards: int = 0
    mix: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    read_fraction: float = 0.0
    mixed_read_fraction: float = 0.5
    zipf_theta: float = 0.99
    closed_loop_fraction: float = 0.0
    think_us: float = 0.0
    #: LBAs covered per read request. 1 is a point read; set it to the
    #: fPage width (4) to model scan-style reads whose service time
    #: inherits the RegenS ``4/(4-L)`` per-byte degradation — at level
    #: L an fPage holds ``4-L`` data oPages, so a fixed logical span
    #: touches proportionally more fPages. The traffic claim rows use
    #: this.
    read_span: int = 1
    admission: str = "defer"
    watermark: float = 24.0
    bucket_rate_factor: float = 2.0
    bucket_burst: float = 8.0
    deadline_factor: float = 4.0
    queue_depth: int = 64
    trace_text: str | None = None
    max_requests: int = 200_000
    #: FTL multi-stream write lanes per device; tenants map onto them
    #: round-robin (``tenant % host_streams``), so co-tenant write
    #: lifetimes separate at the flash level like real multi-stream
    #: SSDs. Per-tenant SLO attribution does *not* depend on this —
    #: the engine tracks tenants by id, not by device stream.
    host_streams: int = 4
    # Device geometry (shared with the probe builder).
    blocks: int = 16
    fpages_per_block: int = 16
    channels: int = 2
    pec_limit: float = 60.0
    msize_lbas: int = 32
    headroom_fraction: float = 0.25
    fill_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ConfigError(
                f"tenants must be positive, got {self.tenants!r}")
        if self.duration_us <= 0:
            raise ConfigError(
                f"duration_us must be positive, got {self.duration_us!r}")
        if self.arrival not in ARRIVAL_KINDS:
            raise ConfigError(
                f"arrival must be one of {ARRIVAL_KINDS}, "
                f"got {self.arrival!r}")
        if not 0.0 < self.utilisation <= 8.0:
            raise ConfigError(
                f"utilisation must be in (0, 8], got {self.utilisation!r}")
        if self.mode not in BUILD_MODES:
            raise ConfigError(
                f"mode must be one of {BUILD_MODES}, got {self.mode!r}")
        if not 0 <= self.level <= 3:
            raise ConfigError(
                f"level must be in 0..3, got {self.level!r}")
        if self.admission not in ADMISSION_POLICIES:
            raise ConfigError(
                f"admission must be one of {ADMISSION_POLICIES}, "
                f"got {self.admission!r}")
        if self.cells < 0:
            raise ConfigError(
                f"cells must be non-negative, got {self.cells!r}")
        if self.shards < 0:
            raise ConfigError(
                f"shards must be non-negative, got {self.shards!r}")
        if len(self.mix) != len(TENANT_CLASSES):
            raise ConfigError(
                f"mix needs {len(TENANT_CLASSES)} fractions, "
                f"got {len(self.mix)}")
        if any(f < 0 for f in self.mix) or sum(self.mix) <= 0:
            raise ConfigError(f"mix fractions must be non-negative and "
                              f"sum positive, got {self.mix!r}")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigError(
                f"read_fraction must be in [0, 1], "
                f"got {self.read_fraction!r}")
        if not 0.0 <= self.closed_loop_fraction <= 1.0:
            raise ConfigError(
                f"closed_loop_fraction must be in [0, 1], "
                f"got {self.closed_loop_fraction!r}")
        if self.watermark <= 0:
            raise ConfigError(
                f"watermark must be positive, got {self.watermark!r}")
        if self.bucket_rate_factor <= 0 or self.bucket_burst < 1:
            raise ConfigError(
                "bucket_rate_factor must be positive and bucket_burst "
                f">= 1, got {self.bucket_rate_factor!r}/"
                f"{self.bucket_burst!r}")
        if self.queue_depth < 1:
            raise ConfigError(
                f"queue_depth must be >= 1, got {self.queue_depth!r}")
        if self.max_requests < 1:
            raise ConfigError(
                f"max_requests must be positive, got {self.max_requests!r}")
        if self.host_streams < 1:
            raise ConfigError(
                f"host_streams must be >= 1, got {self.host_streams!r}")
        if self.read_span < 1:
            raise ConfigError(
                f"read_span must be >= 1, got {self.read_span!r}")

    @property
    def cell_count(self) -> int:
        """Resolved cell count (0 = auto by tenant population).

        Depends only on the config — never on ``--jobs`` — which is
        what keeps the artifact byte-identical across worker counts.
        ``shards`` raises the resolved count to at least that many
        failure domains (capped at the tenant population: a cell with
        no tenants would be a pure-overhead device build).
        """
        if self.cells:
            base = min(self.cells, self.tenants)
        elif self.tenants < 32:
            base = 1
        elif self.tenants < 256:
            base = 2
        elif self.tenants < 1024:
            base = 4
        else:
            base = 8
        if self.shards:
            return min(max(base, self.shards), self.tenants)
        return base


def tenant_class(config: EngineConfig, tenant: int) -> str:
    """The address-pattern class of global tenant ``tenant``.

    Deterministic proportional assignment: tenant ids walk the
    cumulative mix, so a 25/25/25/25 mix over 100 tenants yields
    exactly 25 of each class, striped across cells.
    """
    if config.trace_text is not None:
        return "trace"
    total = float(sum(config.mix))
    u = (tenant + 0.5) / config.tenants
    acc = 0.0
    for name, fraction in zip(TENANT_CLASSES, config.mix):
        acc += fraction / total
        if u <= acc:
            return name
    return TENANT_CLASSES[-1]


def is_closed_loop(config: EngineConfig, tenant: int) -> bool:
    """Closed-loop tenants are the tail of the id space."""
    if config.closed_loop_fraction <= 0.0:
        return False
    return (tenant + 0.5) / config.tenants > 1.0 - config.closed_loop_fraction


def _make_generator(config: EngineConfig, klass: str, span: int, rng):
    if klass == "sequential":
        return SequentialGenerator(span)
    if klass == "uniform":
        return UniformGenerator(span, seed=fork_rng(rng, "addr"))
    if klass == "zipfian":
        return ZipfianGenerator(span, theta=config.zipf_theta,
                                seed=fork_rng(rng, "addr"))
    if klass == "mixed":
        base = UniformGenerator(span, seed=fork_rng(rng, "addr"))
        return MixedGenerator(base,
                              read_fraction=config.mixed_read_fraction,
                              seed=fork_rng(rng, "mixrng"))
    raise ConfigError(f"unknown tenant class {klass!r}")


class _TraceCursor:
    """Cyclic replay of a :class:`~repro.workloads.traces.Trace`.

    Each tenant starts at its own offset so a shared trace does not
    phase-lock every tenant onto the same LBA at the same instant.
    """

    def __init__(self, trace, offset: int) -> None:
        if not len(trace):
            raise ConfigError("trace has no operations to replay")
        self._ops = trace.operations
        self._next = offset % len(trace)

    def next_op(self):
        op = self._ops[self._next]
        self._next = (self._next + 1) % len(self._ops)
        return op


class _Tenant:
    """Per-tenant state inside one cell."""

    __slots__ = (
        "tenant", "klass", "closed_loop", "base", "span", "source",
        "mix_rng", "arrivals", "tokens", "token_rate", "token_cap",
        "last_refill", "pending", "sequence",
        "offered", "admitted", "shed", "deferrals", "completed",
        "errors", "deadline_misses", "reads", "writes", "trims",
        "latencies",
    )

    def __init__(self, tenant: int, klass: str, closed_loop: bool,
                 base: int, span: int) -> None:
        self.tenant = tenant
        self.klass = klass
        self.closed_loop = closed_loop
        self.base = base
        self.span = span
        self.source = None
        self.mix_rng = None
        self.arrivals = None
        self.tokens = 0.0
        self.token_rate = 0.0
        self.token_cap = 0.0
        self.last_refill = 0.0
        self.pending = None
        self.sequence = 0
        self.offered = 0
        self.admitted = 0
        self.shed = 0
        self.deferrals = 0
        self.completed = 0
        self.errors = 0
        self.deadline_misses = 0
        self.reads = 0
        self.writes = 0
        self.trims = 0
        self.latencies: list[float] = []

    def refill(self, now_us: float) -> None:
        self.tokens = min(self.token_cap,
                          self.tokens
                          + (now_us - self.last_refill) * self.token_rate)
        self.last_refill = now_us

    def next_op(self, config: EngineConfig):
        """Draw the tenant's next logical operation (one per arrival)."""
        if isinstance(self.source, _TraceCursor):
            return self.source.next_op()
        op = next(self._ops_iter())
        if (config.read_fraction > 0.0 and self.klass != "mixed"
                and op.op is OpType.WRITE
                and float(self.mix_rng.random()) < config.read_fraction):
            return replace(op, op=OpType.READ, payload=None)
        return op

    def _ops_iter(self):
        # One-op pulls keep the generator's scalar RNG stream intact
        # (the ops_vector bit-identity contract).
        return self.source.ops(1)


def _write_share(config: EngineConfig, trace) -> float:
    """Expected write fraction of the offered mix (pacing weight)."""
    if trace is not None:
        writes = sum(1 for op in trace.operations
                     if op.op is OpType.WRITE)
        return writes / len(trace)
    total = float(sum(config.mix))
    share = 0.0
    for klass, fraction in zip(TENANT_CLASSES, config.mix):
        if klass == "mixed":
            share += fraction / total * (1.0 - config.mixed_read_fraction)
        else:
            share += fraction / total * (1.0 - config.read_fraction)
    return share


def _round6(value: float) -> float | None:
    """JSON-safe float: 6 decimals, infinities to None."""
    value = float(value)
    if math.isnan(value):
        raise ConfigError("traffic results must not contain NaN")
    if math.isinf(value):
        return None
    return round(value, 6)


def _percentile(values: list[float], percentile: float) -> float:
    return interpolated_percentile(sorted(values), percentile)


def run_cell(config: EngineConfig, cell: int, seed: int = DEFAULT_SEED,
             objectives: list[SLOObjective] | None = None) -> dict:
    """Simulate one cell: its device, queue and tenant subset.

    Pure function of the arguments — see the module docstring for the
    determinism contract. Returns the cell's JSON-safe result record.
    """
    cell_count = config.cell_count
    if not 0 <= cell < cell_count:
        raise ConfigError(
            f"cell must be in [0, {cell_count}), got {cell!r}")
    device_seed = int(fork_rng(make_rng(seed), "traffic-device",
                               cell).integers(0, 2**31))
    device = build_queue_device(
        config.mode, device_seed, blocks=config.blocks,
        fpages_per_block=config.fpages_per_block,
        channels=config.channels, pec_limit=config.pec_limit,
        msize_lbas=config.msize_lbas,
        headroom_fraction=config.headroom_fraction,
        fill_fraction=config.fill_fraction, level=config.level,
        host_streams=config.host_streams)
    kind = (config.mode if config.mode != "flat"
            else f"flat-l{config.level}")
    queue = DeviceQueue(device, depth=config.queue_depth,
                        device_kind=kind)

    # Address space: Salamander devices expose minidisks; flat devices
    # one LBA range. Tenants partition whichever space is live.
    salamander = config.mode in ("shrink", "regen")
    if salamander:
        spans = [(m.mdisk_id, m.size_lbas)
                 for m in device.active_minidisks()]
    else:
        spans = [(None, int(getattr(device, "capacity_lbas",
                                    device.n_lbas)))]

    trace = None
    if config.trace_text is not None:
        from repro.workloads.traces import Trace
        trace = Trace.loads(config.trace_text)

    tenant_ids = [t for t in range(config.tenants)
                  if t % cell_count == cell]
    tenants: dict[int, _Tenant] = {}
    for index, t in enumerate(tenant_ids):
        mdisk, space = spans[index % len(spans)]
        per_span = max(1, len(tenant_ids) // len(spans))
        span = max(1, space // per_span)
        base = (index // len(spans)) * span % max(1, space)
        if base + span > space:
            base = 0
        tenant = _Tenant(t, tenant_class(config, t),
                         is_closed_loop(config, t), base, span)
        rng = fork_rng(make_rng(seed), "traffic-tenant", t)
        if trace is not None:
            tenant.source = _TraceCursor(trace, offset=t)
        else:
            tenant.source = _make_generator(config, tenant.klass, span, rng)
        tenant.mix_rng = fork_rng(rng, "mix")
        tenants[t] = tenant
    mdisk_of = {t: spans[i % len(spans)][0]
                for i, t in enumerate(tenant_ids)}

    # Closed-loop prefill: every tenant's span is written through the
    # queue so reads hit flash (probe discipline).
    for i, t in enumerate(tenant_ids):
        tenant = tenants[t]
        for lba in range(tenant.span):
            absolute = tenant.base + lba
            try:
                queue.execute(IORequest(
                    op="write", lba=absolute, mdisk_id=mdisk_of[t],
                    payloads=[bytes([absolute & 0xFF]) * 16]))
            except _PROBE_ERRORS:
                break
    try:
        queue.execute(IORequest(op="flush"))
    except _PROBE_ERRORS:
        pass
    queue.poll()

    # Pilot read + prefill write mean: the deterministic service scale
    # for pacing, token budgets, deadlines and the watermark. The probe
    # discipline: reads cost one sense, writes amortise drain/GC (the
    # prefill mean), and the blend weights them by the offered mix —
    # pacing off the read pilot alone saturates any write-heavy mix.
    # Several probes at staggered offsets so span reads average over
    # fPage alignment phases — a single aligned probe undercosts
    # ``read_span`` reads and the pacing silently saturates the cell.
    pilot_mdisk = spans[0][0] if spans else None
    pilot = tenants[tenant_ids[0]]
    probe_services: list[float] = []
    for i in range(_PILOT_PROBES):
        offset = (i * (config.read_span + 1)) % max(1, pilot.span)
        lba = pilot.base + offset
        count = min(config.read_span, pilot.base + pilot.span - lba)
        if count > 1:
            request = IORequest(op="read_range", lba=lba, count=count,
                                mdisk_id=pilot_mdisk)
        else:
            request = IORequest(op="read", lba=lba, mdisk_id=pilot_mdisk)
        try:
            probe_services.append(
                queue.execute(request, at_us=0.0).service_us)
        except _PROBE_ERRORS:
            break
    read_service_us = (sum(probe_services) / len(probe_services)
                       if probe_services else 0.0)
    if read_service_us <= 0.0:
        read_service_us = _FALLBACK_SERVICE_US
    write_service_us = max(queue.stats.mean_service_us, read_service_us)
    write_share = _write_share(config, trace)
    service_est = (write_share * write_service_us
                   + (1.0 - write_share) * read_service_us)
    queue.poll()

    open_ids = [t for t in tenant_ids if not tenants[t].closed_loop]
    cell_rate = config.utilisation * config.channels / service_est
    tenant_rate = cell_rate / max(1, len(open_ids))
    watermark_us = config.watermark * service_est
    deadline_us = config.deadline_factor * service_est

    # Arrival processes and token buckets (open-loop tenants only).
    t0 = queue.clock_us
    horizon = t0 + config.duration_us
    heap: list[tuple[float, int, int]] = []
    push_seq = 0
    for t in tenant_ids:
        tenant = tenants[t]
        rng = fork_rng(make_rng(seed), "traffic-tenant", t)
        if tenant.closed_loop:
            first = t0 + float(
                fork_rng(rng, "phase").random()) * config.think_us
            heapq.heappush(heap, (first, push_seq, t))
            push_seq += 1
            continue
        tenant.arrivals = make_arrivals(
            config.arrival, tenant_rate, fork_rng(rng, "arrivals"),
            burstiness=config.burstiness)
        tenant.token_rate = tenant_rate * config.bucket_rate_factor
        tenant.token_cap = config.bucket_burst
        tenant.tokens = config.bucket_burst
        tenant.last_refill = t0
        first = tenant.arrivals.next_after(t0)
        if first < horizon:
            heapq.heappush(heap, (first, push_seq, t))
            push_seq += 1

    samples: list[tuple[float, float, str, int, bool, float]] = []
    tag_tenant: dict[int, int] = {}
    offered_total = 0
    max_backlog_us = 0.0
    max_inflight = 0

    def drain() -> None:
        for completion in queue.poll():
            owner = tag_tenant.pop(completion.request.tag, None)
            if owner is None:
                continue
            _account(tenants[owner], completion)

    def _account(tenant: _Tenant, completion) -> None:
        tenant.completed += 1
        if completion.error is not None:
            tenant.errors += 1
        if completion.deadline_missed:
            tenant.deadline_misses += 1
        tenant.latencies.append(completion.latency_us)
        samples.append((completion.end_us, completion.latency_us,
                        completion.request.op, tenant.tenant,
                        completion.deadline_missed, completion.service_us))

    def _build_request(tenant: _Tenant, op, now_us: float) -> IORequest:
        absolute = tenant.base + (op.lba % tenant.span)
        # The request stream is the FTL multi-stream *lifetime hint*
        # (tenants share host_streams lanes round-robin); per-tenant
        # SLO attribution uses tenant ids engine-side.
        stream = tenant.tenant % config.host_streams
        if op.op is OpType.WRITE:
            tenant.writes += 1
            return IORequest(op="write", lba=absolute,
                             mdisk_id=mdisk_of[tenant.tenant],
                             payloads=[op.payload
                                       or bytes([absolute & 0xFF]) * 16],
                             deadline_us=now_us + deadline_us,
                             stream=stream)
        if op.op is OpType.READ:
            tenant.reads += 1
            count = min(config.read_span,
                        tenant.base + tenant.span - absolute)
            if count > 1:
                return IORequest(op="read_range", lba=absolute, count=count,
                                 mdisk_id=mdisk_of[tenant.tenant],
                                 deadline_us=now_us + deadline_us,
                                 stream=stream)
            return IORequest(op="read", lba=absolute,
                             mdisk_id=mdisk_of[tenant.tenant],
                             deadline_us=now_us + deadline_us,
                             stream=stream)
        tenant.trims += 1
        return IORequest(op="trim", lba=absolute,
                         mdisk_id=mdisk_of[tenant.tenant],
                         deadline_us=now_us + deadline_us,
                         stream=stream)

    def _submit(tenant: _Tenant, op, now_us: float) -> None:
        nonlocal max_backlog_us, max_inflight
        request = _build_request(tenant, op, now_us)
        tenant.admitted += 1
        try:
            queue.submit(request, at_us=now_us)
            tag_tenant[request.tag] = tenant.tenant
        except _PROBE_ERRORS:
            # The errored completion is still in the window; poll
            # will account it (with its error flag) like any other.
            tag_tenant[request.tag] = tenant.tenant
        backlog = max(0.0, queue.makespan_us() - now_us)
        max_backlog_us = max(max_backlog_us, backlog)
        max_inflight = max(max_inflight, queue.inflight)
        if queue.inflight >= config.queue_depth:
            drain()

    def _schedule_next(tenant: _Tenant, now_us: float) -> None:
        nonlocal push_seq
        if offered_total >= config.max_requests:
            return
        nxt = tenant.arrivals.next_after(now_us)
        if nxt < horizon:
            heapq.heappush(heap, (nxt, push_seq, tenant.tenant))
            push_seq += 1

    while heap:
        now_us, _seq, t = heapq.heappop(heap)
        tenant = tenants[t]

        if tenant.closed_loop:
            # Self-clocked: issue, block on the completion, think.
            if now_us >= horizon:
                continue
            op = tenant.next_op(config)
            tenant.offered += 1
            offered_total += 1
            tenant.admitted += 1
            request = _build_request(tenant, op, now_us)
            try:
                completion = queue.execute(request, at_us=now_us)
            except _PROBE_ERRORS:
                tenant.completed += 1
                tenant.errors += 1
                completion = None
            if completion is not None:
                _account(tenant, completion)
                wake = completion.end_us + config.think_us
            else:
                wake = now_us + service_est
            if wake < horizon and offered_total < config.max_requests:
                heapq.heappush(heap, (wake, push_seq, t))
                push_seq += 1
            continue

        deferred_retry = tenant.pending is not None
        if deferred_retry:
            op = tenant.pending
            tenant.pending = None
        else:
            if now_us >= horizon:
                continue
            op = tenant.next_op(config)
            tenant.offered += 1
            offered_total += 1

        if config.admission == "none":
            _submit(tenant, op, now_us)
            _schedule_next(tenant, now_us)
            continue

        # Gate 1: the per-tenant token bucket.
        tenant.refill(now_us)
        if tenant.tokens < 1.0:
            if config.admission == "shed":
                tenant.shed += 1
                _schedule_next(tenant, now_us)
                continue
            wake = now_us + max(1.0, (1.0 - tenant.tokens)
                                / tenant.token_rate)
            if wake >= horizon:
                tenant.shed += 1  # deferred past the horizon: shed
            else:
                tenant.deferrals += 1
                tenant.pending = op
                heapq.heappush(heap, (wake, push_seq, t))
                push_seq += 1
            if not deferred_retry:
                _schedule_next(tenant, now_us)
            continue

        # Gate 2: the cell backlog watermark.
        backlog = max(0.0, queue.makespan_us() - now_us)
        if backlog > watermark_us:
            if config.admission == "shed":
                tenant.shed += 1
                _schedule_next(tenant, now_us)
                continue
            wake = now_us + max(service_est, backlog - watermark_us)
            if wake >= horizon:
                tenant.shed += 1
            else:
                tenant.deferrals += 1
                tenant.pending = op
                heapq.heappush(heap, (wake, push_seq, t))
                push_seq += 1
            if not deferred_retry:
                _schedule_next(tenant, now_us)
            continue

        tenant.tokens -= 1.0
        _submit(tenant, op, now_us)
        if not deferred_retry:
            _schedule_next(tenant, now_us)

    drain()

    # Offline per-tenant SLO evaluation: replay completions in
    # completion order through a fresh engine (tenant id == stream).
    slo_report = None
    if objectives:
        slo_engine = SLOEngine(list(objectives))
        for end_us, latency_us, op, tenant_id, missed, _service in sorted(
                samples, key=lambda s: s[0]):
            slo_engine.observe(end_us=end_us, latency_us=latency_us,
                               op=op, stream=tenant_id, device_kind=kind,
                               deadline_missed=missed)
        slo_report = slo_engine.evaluate()

    # Traffic-window aggregates. The queue's own counters also cover
    # the prefill writes and the pilot read; the claim rows need the
    # measured operating point of the traffic window alone.
    window_lat = sorted(s[1] for s in samples)
    window_service = [s[5] for s in samples]
    window = {
        "requests": len(samples),
        "mean_latency_us": _round6(
            sum(window_lat) / len(window_lat) if window_lat else 0.0),
        "p99_latency_us": _round6(_percentile(window_lat, 99.0)),
        "mean_service_us": _round6(
            sum(window_service) / len(window_service)
            if window_service else 0.0),
    }

    stats = queue.stats
    tenant_rows = []
    for t in tenant_ids:
        tenant = tenants[t]
        assert tenant.offered == tenant.admitted + tenant.shed, (
            f"tenant {t}: offered {tenant.offered} != admitted "
            f"{tenant.admitted} + shed {tenant.shed}")
        latencies = tenant.latencies
        tenant_rows.append({
            "tenant": t,
            "cell": cell,
            "class": tenant.klass,
            "loop": "closed" if tenant.closed_loop else "open",
            "offered": tenant.offered,
            "admitted": tenant.admitted,
            "shed": tenant.shed,
            "deferrals": tenant.deferrals,
            "completed": tenant.completed,
            "errors": tenant.errors,
            "deadline_misses": tenant.deadline_misses,
            "reads": tenant.reads,
            "writes": tenant.writes,
            "trims": tenant.trims,
            "mean_latency_us": _round6(
                sum(latencies) / len(latencies) if latencies else 0.0),
            "p99_latency_us": _round6(_percentile(latencies, 99.0)),
            "max_latency_us": _round6(max(latencies, default=0.0)),
        })

    return {
        "cell": cell,
        "device_kind": kind,
        "service_us": _round6(service_est),
        "read_service_us": _round6(read_service_us),
        "write_service_us": _round6(write_service_us),
        "arrival_per_us": _round6(cell_rate),
        "tenant_rate_per_us": _round6(tenant_rate),
        "watermark_us": _round6(watermark_us),
        "max_backlog_us": _round6(max_backlog_us),
        "max_inflight": max_inflight,
        "window": window,
        "queue": {
            "submitted": stats.submitted,
            "dispatched": stats.dispatched,
            "errors": stats.errors,
            "deadline_misses": stats.deadline_misses,
            "mean_latency_us": _round6(stats.mean_latency_us),
            "mean_wait_us": _round6(stats.mean_wait_us),
            "mean_service_us": _round6(stats.mean_service_us),
        },
        "slo": slo_report,
        "tenants": tenant_rows,
    }


def _cell_star(args: tuple) -> dict:
    """Worker entry point (picklable; pool workers run context-free)."""
    return run_cell(*args)


def run_traffic(config: EngineConfig | None = None,
                seed: int = DEFAULT_SEED, jobs: int = 1,
                objectives: list[SLOObjective] | None = None) -> dict:
    """Run every cell (optionally in parallel) and merge the artifact.

    The returned document is the ``repro.workloads.engine/v1``
    artifact body: byte-identical (via :func:`write_engine_artifact`)
    for any ``jobs`` because cells are pure functions of
    ``(config, cell, seed)`` and the merge walks them in index order.
    """
    config = config or EngineConfig()
    from repro.sim.parallel import parallel_map
    tasks = [(config, cell, seed, objectives)
             for cell in range(config.cell_count)]
    cells = parallel_map(_cell_star, tasks, jobs=jobs)

    tenant_rows = [row for cell in cells for row in cell["tenants"]]
    tenant_rows.sort(key=lambda row: row["tenant"])
    totals = {
        "offered": 0, "admitted": 0, "shed": 0, "deferrals": 0,
        "completed": 0, "errors": 0, "deadline_misses": 0,
        "reads": 0, "writes": 0, "trims": 0,
    }
    for row in tenant_rows:
        for key in totals:
            totals[key] += row[key]
    by_class: dict[str, list[float]] = {}
    for row in tenant_rows:
        if row["p99_latency_us"] is not None and row["completed"]:
            by_class.setdefault(row["class"], []).append(
                row["p99_latency_us"])
    class_p99 = {klass: _round6(_percentile(values, 50.0))
                 for klass, values in sorted(by_class.items())}
    slo_section = None
    if objectives:
        slo_section = {
            "ok": all(cell["slo"]["ok"] for cell in cells
                      if cell["slo"] is not None),
            "cells": [cell["slo"] for cell in cells],
        }
    cell_records = [{key: value for key, value in cell.items()
                     if key not in ("tenants", "slo")}
                    for cell in cells]
    return {
        "schema": ENGINE_SCHEMA,
        "seed": int(seed),
        "config": _config_record(config),
        "cells": cell_records,
        "tenants": tenant_rows,
        "totals": totals,
        "median_p99_by_class_us": class_p99,
        "slo": slo_section,
    }


def _config_record(config: EngineConfig) -> dict:
    record = asdict(config)
    record["mix"] = list(config.mix)
    record["resolved_cells"] = config.cell_count
    # Trace bodies can be large; the artifact records presence + size.
    text = record.pop("trace_text")
    record["trace_ops"] = (len([line for line in text.splitlines()[1:]
                                if line.strip()])
                           if text is not None else 0)
    return record


# -- artifact I/O ------------------------------------------------------------

def write_engine_artifact(document: dict, path) -> "Path":
    """Validate a traffic document and write it as canonical JSON."""
    validate_engine_document(document)
    return write_json(path, document)


def load_engine_artifact(path) -> dict:
    """Read and validate a ``repro.workloads.engine/v1`` artifact."""
    document = read_json(path, "traffic artifact")
    validate_engine_document(document)
    return document


def validate_engine_document(document: dict) -> None:
    """Schema + conservation check for traffic documents.

    Beyond shape, this asserts the admission identity the property
    tests rely on: every tenant's ``offered == admitted + shed``, and
    the totals are the exact sums of the tenant rows.
    """
    require_fields(document, "traffic document", {"schema": object})
    if document["schema"] != ENGINE_SCHEMA:
        raise ConfigError(
            f"unsupported traffic schema: {document['schema']!r}")
    require_fields(document, "traffic document", {
        "config": dict, "cells": list, "tenants": list, "totals": dict})
    totals = {"offered": 0, "admitted": 0, "shed": 0}
    for row in document["tenants"]:
        require_fields(row, "tenant row", {
            "tenant": object, "class": object, "loop": object,
            "offered": int, "admitted": int, "shed": int,
            "completed": object})
        if row["offered"] != row["admitted"] + row["shed"]:
            raise ConfigError(
                f"tenant {row['tenant']}: offered {row['offered']} != "
                f"admitted {row['admitted']} + shed {row['shed']}")
        if row["loop"] == "closed" and row["shed"]:
            raise ConfigError(
                f"tenant {row['tenant']}: closed-loop tenants must "
                f"never be shed")
        for key in totals:
            totals[key] += row[key]
    for key, value in totals.items():
        if document["totals"].get(key) != value:
            raise ConfigError(
                f"totals[{key!r}] = {document['totals'].get(key)} does "
                f"not match the tenant-row sum {value}")


# -- obs surfacing -----------------------------------------------------------

def publish_traffic_metrics(document: dict) -> None:
    """Export a merged traffic document as ``repro_traffic_*`` metrics.

    Workers never export telemetry (parallel discipline); the parent
    calls this once over the merged document when metrics are enabled.
    """
    if context.current().metrics is None:
        return
    from repro.obs.instruments import traffic_instruments
    instr = traffic_instruments()
    for outcome in ("offered", "admitted", "shed", "deferrals",
                    "completed", "errors", "deadline_misses"):
        instr.requests.labels(outcome=outcome).inc(
            float(document["totals"][outcome]))
    for klass, p99 in (document.get("median_p99_by_class_us")
                       or {}).items():
        if p99 is not None:
            instr.p99_latency.labels(tenant_class=klass).set(p99)
    backlog = max((cell.get("max_backlog_us") or 0.0
                   for cell in document["cells"]), default=0.0)
    instr.max_backlog.set(backlog)
    instr.tenants.set(float(len(document["tenants"])))


__all__ = [
    "ADMISSION_POLICIES",
    "ENGINE_SCHEMA",
    "TENANT_CLASSES",
    "EngineConfig",
    "is_closed_loop",
    "load_engine_artifact",
    "publish_traffic_metrics",
    "run_cell",
    "run_traffic",
    "tenant_class",
    "validate_engine_document",
    "write_engine_artifact",
]
