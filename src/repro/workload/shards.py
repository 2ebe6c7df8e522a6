"""The closed client population (one reusable heap wake per client).

:class:`ShardedClientPopulation` is the population every synthetic run
builds, at any client count. Instead of one live generator process
(frame + :class:`~repro.sim.process.Process` + per-yield
:class:`~repro.sim.events.Timeout`) per client, every client is one
reusable :class:`ShardClientWake` heap entry that carries its own
session state in slots. At 10^6 clients that replaces gigabytes of
frame/process/event objects with a few hundred megabytes, which is what
lets million-domain configurations run at all (see
``docs/PERFORMANCE.md``). Session counts are kept per *shard*, a
logical range of client slots, for provenance.

Bit-identical by construction
-----------------------------
The population mirrors the reference generator
(:meth:`ClientPopulation._client
<repro.workload.clients.ClientPopulation._client>`) draw for draw:

* construction consumes one eid per client for an urgent init entry, in
  the same client order (exactly as ``env.process`` spawning does);
* every wake draws from the *same* population-shared RNG streams in the
  same order the generator body would — session start (resolve → pages
  draw → trace → layout RTT) and page cycle (hits draw → offer →
  counters → think draw);
* rescheduling uses the byte-exact eid/heap-key arithmetic of
  :func:`~repro.sim.events.timeout_factory`.

Since heap dispatch order is a pure function of the (time, key) entries
and every stream draw happens inside some dispatch, the trajectory — and
therefore results, metrics and checkpoint digests — is bit-identical to
the generator for *any* configuration (dynamics, caching, geography,
arbitrary session models included). The equivalence suites
(``tests/integration/test_population_equivalence.py``,
``tests/property/test_prop_population_equivalence.py``) run both and
compare.

Two lanes
---------
Event lane
    Each wake re-arms a shared one-element callbacks list on itself; the
    engine dispatches it like any other event and
    :meth:`ShardedClientPopulation._on_wake` runs one generator resume,
    drawing through the same sampler partials the generator binds. This
    is the universal mirror described above.
Fast-forward lane
    Under a :class:`~repro.sim.fastforward.FastForwardEnvironment`, when
    :func:`fluid_fallback_reasons` is empty, the wake class registers as
    the fluid task and :meth:`ShardClientWake.drain` batch-steps
    quiescent windows natively. Per page cycle the event lane pays a
    callback dispatch and three Python frames of ``random`` machinery
    (``randint`` → ``randrange`` → ``_randbelow``) plus one for
    ``expovariate``; the drain replaces that with straight-line code over
    bound C primitives (``Random.random``, ``Random.getrandbits``),
    replicating each wrapper's arithmetic exactly:

    * ``Exponential`` think times: ``-log(1.0 - random()) / lambd`` — the
      body of ``random.Random.expovariate`` with the identical
      precomputed ``lambd``;
    * ``DiscreteUniform`` hits: ``low + r`` with ``r`` drawn by the
      ``getrandbits(width.bit_length())`` rejection loop of
      ``Random._randbelow_with_getrandbits`` (consumption-exact,
      including rejections);
    * ``Geometric`` pages: the inversion ``max(1, ceil(log(u) /
      log(1-p)))`` with the same guard draws as :meth:`Geometric.sample
      <repro.sim.distributions.Geometric.sample>`.

    Ineligible configurations count their fallback reasons on the
    environment and take the event lane inside the same environment.
    :class:`~repro.experiments.simulation.Simulation` applies the same
    gate before it builds its engine, so an ineligible configuration
    runs on the reference environment and never enters this one.
"""

from __future__ import annotations

from array import array
from heapq import heappush, heapreplace
from math import ceil as _ceil, log as _log
from typing import List

from ..errors import ConfigurationError, SimulationError
from ..sim.distributions import DiscreteUniform, Exponential, Geometric
from ..sim.events import _NORMAL_KEY
from ..sim.fastforward import FastForwardEnvironment, FluidTask
from .clients import ClientPopulation

__all__ = [
    "ShardClientWake",
    "ShardedClientPopulation",
    "DEFAULT_SHARD_SIZE",
    "fluid_fallback_reasons",
]

_INFINITY = float("inf")

#: Clients per accounting shard. Shards are *logical* slot ranges — they
#: bound the granularity of per-shard counters (sessions started), not
#: any hot-path data structure, so the default only needs to keep the
#: shard table small relative to the population.
DEFAULT_SHARD_SIZE = 4096


def fluid_fallback_reasons(
    *,
    dynamic_domains: bool,
    client_address_caching: bool,
    geography: bool,
    session_model,
) -> List[str]:
    """Why a closed population cannot take the fast-forward lane.

    Takes what the population is built with, so the answer is known
    before any engine is built; an empty list means eligible.

    Each named feature would make :meth:`ShardClientWake.drain` diverge
    from the reference generator, so its presence forces event-stepping:

    ``dynamic-domains``
        Domain remapping over time (``dynamics.is_static`` false).
    ``client-address-caching``
        Per-client cached address mappings with TTL validity checks.
    ``geography``
        Geographic layouts accumulate per-page network RTTs.
    ``session-model``
        Session distributions other than the exact
        ``Geometric``/``DiscreteUniform``/``Exponential`` triple whose
        RNG arithmetic the drain inlines.
    """
    reasons = []
    if dynamic_domains:
        reasons.append("dynamic-domains")
    if client_address_caching:
        reasons.append("client-address-caching")
    if geography:
        reasons.append("geography")
    if not (
        type(session_model.pages_per_session) is Geometric
        and type(session_model.hits_per_page) is DiscreteUniform
        and type(session_model.think_time) is Exponential
    ):
        reasons.append("session-model")
    return reasons


class ShardClientWake(FluidTask):
    """One client's reusable heap entry and session state.

    The wake is a :class:`~repro.sim.fastforward.FluidTask` (so the
    fast-forward drain can step it natively) that also carries the three
    fields the reference engine's dispatch touches on a heap entry —
    ``_processed``, ``_waiter`` (always ``None``) and ``_callbacks`` —
    so either engine can dispatch it through its callback branch without
    the rest of an :class:`~repro.sim.events.Event`. The session state
    both lanes read and write lives in its slots: the home domain (one
    int object shared by every client of the domain), the pages left in
    the session (``-1`` until the init dispatch, ``0`` when a session
    start is due), the mapped server object and whether the
    authoritative DNS routed the session.

    Construction mirrors :class:`~repro.sim.process._Initialize`: one
    urgent entry at the current time, consuming the eid a generator
    client's spawn would consume (``PRIORITY_URGENT`` is 0, so the fused
    heap key is the bare eid).
    """

    __slots__ = (
        "population", "slot", "domain_id", "_remaining", "_server",
        "_resolved", "_callbacks", "_processed",
    )

    #: No process ever waits on a wake.
    _waiter = None

    def __init__(
        self,
        env,
        population: "ShardedClientPopulation",
        slot: int,
        domain_id: int,
        callbacks=None,
    ):
        self.population = population
        self.slot = slot
        self.domain_id = domain_id
        self._remaining = -1
        self._server = None
        self._resolved = False
        self._callbacks = callbacks
        self._processed = False
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env._now + 0.0, eid, self))

    @classmethod
    def drain(cls, env, queue, target: float, budget: int = -1) -> None:
        """Dispatch consecutive client wakes natively (fast-forward lane).

        Per wake: init, session start and/or one page cycle — every
        line shadows a line of the reference client generator (or of
        ``WebServer.offer``, inlined for the per-page fast path) — same
        call order, same operand order. Change them together or the
        equivalence suites fail. Only populations with no fallback
        reasons register this class, so the dynamic-domains / caching /
        geography / non-standard-model branches of the event lane have
        no counterpart here. The loop keeps going while the heap top is
        a wake due by ``target`` (and ``budget`` wakes remain; see
        :meth:`FluidTask.drain` for the heapreplace parity argument).
        """
        replace = heapreplace
        ceil = _ceil
        log = _log
        # Population-shared state (RNG streams, session-model params,
        # resolution chain) is hoisted into locals on the first wake
        # instead of loaded per wake. Population counters accumulate in
        # locals and flush on exit: within a drain window nothing else
        # runs (quiescence), so every observer — monitor windows,
        # checkpoint digests, results — sees the flushed values it
        # would have seen under per-wake increments. Integer-only, so
        # the deferred addition is parity-exact.
        population = None
        pages_acc = hits_acc = sessions_acc = routed_acc = 0
        try:
            while queue:
                item = queue[0]
                now = item[0]
                if now > target:
                    return
                task = item[2]
                if type(task) is not cls:
                    return
                p = task.population
                if p is not population:
                    if population is not None:  # pragma: no cover
                        # A second population mid-drain: flush the first
                        # one's counters before re-hoisting.
                        population.total_pages += pages_acc
                        population.total_hits += hits_acc
                        population.total_sessions += sessions_acc
                        population.dns_routed_hits += routed_acc
                        pages_acc = hits_acc = sessions_acc = routed_acc = 0
                    population = p
                    chain = p.resolution_chain
                    resolve = chain.resolve
                    servers = p.cluster.servers
                    tracer = p.tracer
                    tracing = tracer.enabled
                    trace_record = tracer.record
                    model = p.session_model
                    think = model.think_time
                    stagger_uniform = p._stagger_rng.uniform
                    think_mean = think.mean
                    # Exponential.sampler binds expovariate with
                    # lambd = 1.0 / mean; same division, float-identical.
                    think_random = p._think_rng.random
                    think_lambd = 1.0 / think.mean
                    hits_dist = model.hits_per_page
                    hits_getrandbits = p._hits_rng.getrandbits
                    hits_low = hits_dist.low
                    hits_width = hits_dist.high - hits_dist.low + 1
                    hits_bits = hits_width.bit_length()
                    pages_dist = model.pages_per_session
                    pages_random = p._pages_rng.random
                    pages_degenerate = pages_dist._p >= 1.0
                    pages_log_q = (
                        0.0 if pages_degenerate else log(1.0 - pages_dist._p)
                    )
                    shard_sessions = p._shard_sessions
                    shard_size = p.shard_size
                remaining = task._remaining
                domain_id = task.domain_id
                if remaining > 0:
                    server = task._server
                    resolved_by_dns = task._resolved
                elif remaining == 0:
                    # Session start: resolve, then draw the session
                    # length (the drain runs only under static dynamics,
                    # so the session's domain is the home domain).
                    slot = task.slot
                    before = chain.authoritative_answers
                    record = resolve(domain_id, now, slot)
                    resolved_by_dns = chain.authoritative_answers > before
                    server = servers[record.server_id]
                    if pages_degenerate:
                        remaining = 1
                    else:
                        u = pages_random()
                        while u <= 0.0:  # pragma: no cover - random() in [0, 1)
                            u = pages_random()
                        remaining = ceil(log(u) / pages_log_q)
                        if remaining < 1:
                            remaining = 1
                    sessions_acc += 1
                    shard_sessions[slot // shard_size] += 1
                    if tracing:
                        trace_record(
                            now,
                            "session",
                            {
                                "client": slot,
                                "domain": domain_id,
                                "server": record.server_id,
                                "pages": remaining,
                                "dns": resolved_by_dns,
                            },
                        )
                    task._server = server
                    task._resolved = resolved_by_dns
                else:
                    # First dispatch (the _Initialize mirror): stagger
                    # the session start across one mean think time.
                    task._remaining = 0
                    delay = stagger_uniform(0.0, think_mean)
                    env._eid = eid = env._eid + 1
                    replace(queue, (now + delay, _NORMAL_KEY | eid, task))
                    budget -= 1
                    if budget == 0:
                        return
                    continue
                # One page cycle. Hits: randint(low, high) with the
                # rejection loop of Random._randbelow_with_getrandbits,
                # consumption-exact.
                r = hits_getrandbits(hits_bits)
                while r >= hits_width:
                    r = hits_getrandbits(hits_bits)
                hits = hits_low + r
                # WebServer.offer, inlined (same checks, same op order).
                if hits <= 0:
                    raise SimulationError(
                        f"a page burst must have >= 1 hit, got {hits!r}"
                    )
                last = server._last_update
                if now < last:
                    raise SimulationError(
                        f"time went backwards: {now!r} < {last!r}"
                    )
                backlog = server._backlog
                elapsed = now - last
                busy = backlog if backlog <= elapsed else elapsed
                backlog -= busy
                server._busy_in_window += busy
                server._last_update = now
                service = hits / server.capacity
                stats = server.response_times
                sojourn = backlog + service
                stats.count = count = stats.count + 1
                delta = sojourn - stats._mean
                stats._mean = mean = stats._mean + delta / count
                stats._m2 += delta * (sojourn - mean)
                if sojourn < stats.minimum:
                    stats.minimum = sojourn
                if sojourn > stats.maximum:
                    stats.maximum = sojourn
                server._backlog = backlog + service
                server._hits_in_window += hits
                server.total_hits += hits
                server.total_pages += 1
                domain_hits = server.domain_hits
                # try/except beats dict.get on the hot path: the KeyError
                # fires once per (server, domain) pair, then never again.
                # Integer-only bookkeeping, so reordering vs the reference
                # `.get` is parity-safe (no RNG, no float arithmetic).
                try:
                    domain_hits[domain_id] += hits
                except KeyError:
                    domain_hits[domain_id] = hits
                # Population totals (the generator's per-page counter
                # block) — accumulated, flushed on exit.
                pages_acc += 1
                hits_acc += hits
                if resolved_by_dns:
                    routed_acc += hits
                task._remaining = remaining - 1
                # Think-sleep: expovariate(lambd) inlined, then the
                # timeout factory's eid/heap-key arithmetic.
                delay = -log(1.0 - think_random()) / think_lambd
                env._eid = eid = env._eid + 1
                replace(queue, (now + delay, _NORMAL_KEY | eid, task))
                budget -= 1
                if budget == 0:
                    return
        finally:
            if population is not None:
                population.total_pages += pages_acc
                population.total_hits += hits_acc
                population.total_sessions += sessions_acc
                population.dns_routed_hits += routed_acc

    def __repr__(self) -> str:
        return (
            f"<ShardClientWake slot={self.slot} domain={self.domain_id} "
            f"remaining={self._remaining}>"
        )


class ShardedClientPopulation(ClientPopulation):
    """All clients as reusable heap wakes, with per-shard session counts.

    A :class:`~repro.workload.clients.ClientPopulation` whose clients
    are :class:`ShardClientWake` entries instead of generator processes:
    same constructor arguments plus ``shard_size`` (clients per
    accounting shard), same counters, metrics and ``snapshot_state``.
    See the module docstring for the equivalence argument.
    """

    __slots__ = (
        "_think_sample",
        "_pages_sample",
        "_hits_sample",
        "shard_size",
        "shard_count",
        "_shard_sessions",
        "_session_domain",
        "_cached_domain",
        "_cached_records",
        "_page_rtt",
        "_cb",
    )

    def __init__(self, *args, shard_size: int = DEFAULT_SHARD_SIZE, **kwargs):
        if shard_size < 1:
            raise ConfigurationError(
                f"shard_size must be >= 1, got {shard_size!r}"
            )
        self.shard_size = shard_size
        super().__init__(*args, **kwargs)

    def _spawn(self) -> list:
        """One wake per client, in client order, on the lane that fits."""
        env = self.env
        total_clients = self.total_clients
        # The same sampler partials the reference generator binds — the
        # event lane draws through these, which is what makes the mirror
        # exact for arbitrary session models.
        model = self.session_model
        self._think_sample = model.think_time.sampler(self._think_rng)
        self._pages_sample = model.pages_per_session.sampler(self._pages_rng)
        self._hits_sample = model.hits_per_page.sampler(self._hits_rng)
        self.shard_count = (
            total_clients + self.shard_size - 1
        ) // self.shard_size
        self._shard_sessions = array("q", bytes(8 * self.shard_count))
        # Per-feature client state, allocated only when the feature is
        # on. ``bytes(8 * n)`` zero-fills an "q"/"d" array without
        # building an n-element Python list first; every cell is written
        # at a session start before it is read.
        self._session_domain = (
            None
            if self.dynamics.is_static
            else array("q", bytes(8 * total_clients))
        )
        if self.client_address_caching:
            self._cached_domain = array("q", bytes(8 * total_clients))
            for slot in range(total_clients):
                self._cached_domain[slot] = -1
            self._cached_records = [None] * total_clients
        else:
            self._cached_domain = None
            self._cached_records = None
        self._page_rtt = (
            array("d", bytes(8 * total_clients))
            if self.layout is not None
            else None
        )
        # One shared single-element callbacks list, re-armed onto each
        # wake after dispatch. Safe because the engine iterates its
        # *local* reference after nulling the attribute.
        self._cb = [self._on_wake]
        if isinstance(env, FastForwardEnvironment):
            reasons = fluid_fallback_reasons(
                dynamic_domains=not self.dynamics.is_static,
                client_address_caching=self.client_address_caching,
                geography=self.layout is not None,
                session_model=self.session_model,
            )
            if reasons:
                for reason in reasons:
                    env.count_fallback(reason)
            else:
                self.engine = "fluid"
                env.register_task_class(ShardClientWake)
        callbacks = None if self.engine == "fluid" else self._cb
        processes = []
        append = processes.append
        # Drain the count stream into run-length arrays first, so its
        # working state is freed before the wakes are allocated.
        homes = array("q")
        runs = array("q")
        for domain_id, count in enumerate(
            self.domains.iter_client_counts(total_clients)
        ):
            if count:
                homes.append(domain_id)
                runs.append(count)
        start = 0
        for domain_id, count in zip(homes, runs):
            # One int object per domain, shared by all its clients.
            end = start + count
            for slot in range(start, end):
                append(ShardClientWake(env, self, slot, domain_id, callbacks))
            start = end
        return processes

    def _on_wake(self, wake: ShardClientWake) -> None:
        """Run one client wake (the event lane's universal mirror).

        Transcribes one resume of ``ClientPopulation._client`` — same
        stream draws through the same sampler partials, same call order,
        same reschedule arithmetic — then re-arms the wake. The engine
        nulled ``wake._callbacks`` and set ``_processed`` before
        invoking this, so re-arming is two attribute stores.
        """
        env = self.env
        now = env._now
        remaining = wake._remaining
        if remaining < 0:
            # First dispatch: stagger the session start across one mean
            # think time (the generator's pre-loop yield).
            wake._remaining = 0
            delay = self._stagger_rng.uniform(
                0.0, self.session_model.think_time.mean
            )
            env._eid = eid = env._eid + 1
            heappush(env._queue, (now + delay, _NORMAL_KEY | eid, wake))
            wake._callbacks = self._cb
            wake._processed = False
            return
        session_domain = self._session_domain
        if remaining > 0:
            domain_id = (
                wake.domain_id
                if session_domain is None
                else session_domain[wake.slot]
            )
            server = wake._server
            resolved_by_dns = wake._resolved
        else:
            slot = wake.slot
            while True:
                # Session start. The loop mirrors the generator's
                # `while True` head: a model drawing zero pages starts
                # the next session in the same wake, as `range(0)` would.
                home = wake.domain_id
                dynamics = self.dynamics
                domain_id = (
                    home
                    if dynamics.is_static
                    else dynamics.current_domain(home, now)
                )
                chain = self.resolution_chain
                if (
                    self.client_address_caching
                    and self._cached_records[slot] is not None
                    and self._cached_domain[slot] == domain_id
                    and self._cached_records[slot].is_valid(now)
                ):
                    record = self._cached_records[slot]
                    resolved_by_dns = False
                    self.client_cache_hits += 1
                else:
                    before = chain.authoritative_answers
                    record = chain.resolve(domain_id, now, slot)
                    resolved_by_dns = chain.authoritative_answers > before
                    if self.client_address_caching:
                        self._cached_records[slot] = record
                        self._cached_domain[slot] = domain_id
                pages = int(self._pages_sample())
                self.total_sessions += 1
                self._shard_sessions[slot // self.shard_size] += 1
                tracer = self.tracer
                if tracer.enabled:
                    tracer.record(
                        now,
                        "session",
                        {
                            "client": slot,
                            "domain": domain_id,
                            "server": record.server_id,
                            "pages": pages,
                            "dns": resolved_by_dns,
                        },
                    )
                if self.layout is not None:
                    self._page_rtt[slot] = self.layout.rtt(
                        domain_id, record.server_id
                    )
                if pages > 0:
                    remaining = pages
                    break
            server = self.cluster.servers[record.server_id]
            wake._server = server
            wake._resolved = resolved_by_dns
            if session_domain is not None:
                session_domain[slot] = domain_id
        # One page cycle (the generator's for-loop body).
        hits = int(self._hits_sample())
        server.offer(now, hits, domain_id)
        self.total_pages += 1
        self.total_hits += hits
        if resolved_by_dns:
            self.dns_routed_hits += hits
        if self.layout is not None:
            self.network_rtt_stats.add(self._page_rtt[wake.slot])
        wake._remaining = remaining - 1
        delay = self._think_sample()
        if not 0.0 <= delay < _INFINITY:
            raise SimulationError(
                f"timeout delay must be finite and >= 0, got {delay!r}"
            )
        env._eid = eid = env._eid + 1
        heappush(env._queue, (now + delay, _NORMAL_KEY | eid, wake))
        wake._callbacks = self._cb
        wake._processed = False

    def shard_stats(self) -> dict:
        """Per-shard accounting for provenance / workload info.

        Small summary (not the raw per-shard table) so manifests stay
        bounded at large populations.
        """
        sessions = self._shard_sessions
        return {
            "shard_size": self.shard_size,
            "shard_count": self.shard_count,
            "sessions_min": min(sessions) if sessions else 0,
            "sessions_max": max(sessions) if sessions else 0,
            "sessions_total": sum(sessions),
        }
