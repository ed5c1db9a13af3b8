"""Deterministic discrete-event network: causal broadcast, optional sequencer.

Virtual integer ticks, a seeded RNG for latency draws, and a strict event
ordering (tick, insertion order) make every run a pure function of
(scenario, config, seed). Messages cross the wire as encoded envelopes so
the byte formats are exercised on every run: each envelope is encoded once
when it is sent and decoded once, on its first arrival, and every
destination (and the sequencer) shares that decoded message. Messages are
immutable tuple records, so sharing one is safe.

Two modes:
  causal    - every message is broadcast to all other sites and held at each
              destination until causally ready (origin's next seq, nothing
              from other sites the receiver has not seen).
  sequencer - every message goes to a central virtual node first. The node
              hands each op, in per-origin order, to the sequencer server,
              which rebases it and assigns a consecutive index, and
              broadcasts the result to all sites, which deliver in index order.
              A site that has delivered ACK_EVERY stream messages since it
              last sent anything sends the server an Ack of its delivered
              count, which cuts that site's bridge at the server.

A site failing to handle a message is an invariant failure and propagates
out of `Simulator.run`; nothing is held back for a retry.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Union

from .model import SiteId, VectorClock
from .framework import (
    Ack,
    WireMessage,
    decode_message,
    encode_message,
    message_text,
    op_token,
)
from .metrics import MetricsBundle


@dataclass(frozen=True)
class FixedLatency:
    ticks: int = 1


@dataclass(frozen=True)
class UniformLatency:
    lo: int = 1
    hi: int = 10

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"uniform latency needs lo <= hi, got {self.lo} > {self.hi}")


LatencyModel = Union[FixedLatency, UniformLatency]


def _latency_draw(latency: LatencyModel, rng: random.Random) -> Callable[[], int]:
    """A model's delay draw, bound once, at least 1 tick; a uniform one draws as `rng.randint(lo, hi)` does."""
    if isinstance(latency, FixedLatency):
        return itertools.repeat(max(1, latency.ticks)).__next__
    lo, width = latency.lo, latency.hi - latency.lo + 1
    bits, getrandbits = width.bit_length(), rng.getrandbits

    def draw() -> int:
        r = getrandbits(bits)
        while r >= width:
            r = getrandbits(bits)
        return max(1, lo + r)

    return draw


SEQUENCER_NODE = -1
MODES = ("causal", "sequencer")

# A sequencer client acks its delivered count after this many stream messages
# delivered since it last sent anything (an op carries the count too). The
# server cuts the client's bridge by it, so a bridge holds about this many ops
# beyond those in flight; a read-only client acks once per ACK_EVERY messages.
ACK_EVERY = 32


@dataclass(frozen=True)
class SimConfig:
    mode: str = "causal"  # "causal" | "sequencer"
    latency: LatencyModel = FixedLatency(1)
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class Envelope:
    payload: bytes  # full encoded message
    msg: Optional[WireMessage] = None  # decoded from `payload` on the first arrival


def causally_ready(msg: WireMessage, local: VectorClock) -> bool:
    """The op is its origin's next, and its clock (an OT record's is empty)
    names nothing the receiver lacks."""
    origin = msg.origin
    if msg.seq != local.get(origin) + 1:
        return False
    return all(n <= local.get(s) for s, n in msg.clock.entries.items() if s != origin)


class Simulator:
    """Owns the event loop; sites are invoked sequentially via callbacks.

    `generate_cb(site, tick)` returns a wire message (or None to skip);
    `deliver_cb(site, message, tick)` replays a remote message at a site and
    returns the position-based op actually applied (or None).
    `clock_of(site)` exposes the site's delivery clock for causal gating.
    Sequencer mode needs `sequencer_server`, whose `process(sender, msg)`
    returns the message to broadcast, carrying its stream index as `index`,
    whose `ack(sender, ack)` takes a site's Ack, and whose `sequenced[site]`
    counts the site's ops it has processed. Envelopes count into `metrics`.
    """

    def __init__(
        self,
        config: SimConfig,
        site_ids: List[SiteId],
        generate_cb: Callable,
        deliver_cb: Callable,
        clock_of: Callable,
        sequencer_server=None,
        metrics: Optional[MetricsBundle] = None,
    ):
        if config.mode == "sequencer" and sequencer_server is None:
            raise ValueError("sequencer mode requires a sequencer server")
        self.config = config
        self.site_ids = sorted(site_ids)
        self._others = {s: [d for d in self.site_ids if d != s] for s in self.site_ids}  # a causal broadcast's destinations
        self._sequenced = config.mode == "sequencer"
        self.generate_cb = generate_cb
        self.deliver_cb = deliver_cb
        self.clock_of = clock_of
        self.metrics = MetricsBundle() if metrics is None else metrics
        self._draw_latency = _latency_draw(config.latency, random.Random(config.seed))
        self.events: list = []  # heap of (tick, counter, kind, data)
        self._count = itertools.count().__next__  # the counter: ties at one tick keep their insertion order
        self.trace: List[str] = []
        self.now = 0
        # causal mode hold-back
        self.pending: Dict[SiteId, List[WireMessage]] = {s: [] for s in site_ids}
        # sequencer state
        self.sequencer_server = sequencer_server
        self.seq_hold: Dict[SiteId, dict] = {s: {} for s in site_ids}  # index -> message
        self.seq_next: Dict[SiteId, int] = {s: 0 for s in site_ids}
        self.seq_fifo: Dict[SiteId, dict] = {s: {} for s in site_ids}  # per-origin seq hold-back
        self.unacked: Dict[SiteId, int] = dict.fromkeys(site_ids, 0)  # stream messages delivered since the site last sent
        self.link_free: Dict[SiteId, int] = dict.fromkeys(site_ids, 0)  # the last tick a site's message reaches the sequencer

    # -- scheduling ---------------------------------------------------------

    def _push(self, tick: int, kind: str, data) -> None:
        heapq.heappush(self.events, (tick, self._count(), kind, data))

    def schedule_generation(self, tick: int, site: SiteId) -> None:
        self._push(tick, "gen", site)

    def _encode(self, msg: WireMessage) -> bytes:
        data = encode_message(msg)
        self.metrics.wire_bytes += len(data)
        self.metrics.wire_messages += 1
        return data

    def broadcast(self, msg: WireMessage, dests: List[int]) -> None:
        """Send `msg` to `dests` (ascending), drawing a latency for each."""
        env = Envelope(self._encode(msg))
        for dst in dests:
            self._push(self.now + self._draw_latency(), "net", (dst, env))

    # -- event handling -----------------------------------------------------

    def _handle_generation(self, site: SiteId) -> None:
        msg = self.generate_cb(site, self.now)
        if msg is None:
            return
        self.trace.append(f"tick={self.now} site={site} kind=gen op={message_text(msg)} key={msg.origin}:{msg.seq}")
        if self._sequenced:
            self.unacked[site] = 0  # the op's delivered count acks
            tick = self.now + self._draw_latency()
            self._push(tick, "net", (SEQUENCER_NODE, Envelope(self._encode(msg))))
            self.link_free[site] = max(self.link_free[site], tick)
        else:
            self.broadcast(msg, self._others[site])

    def _handle_sequencer(self, msg: WireMessage) -> None:
        origin = msg.origin
        # client -> server links are logically FIFO: process in per-origin seq
        # order, each op the one after those the server has sequenced
        fifo, sequenced = self.seq_fifo[origin], self.sequencer_server.sequenced
        fifo[msg.seq] = msg
        while sequenced[origin] + 1 in fifo:
            out = self.sequencer_server.process(origin, fifo.pop(sequenced[origin] + 1))
            self.broadcast(out, self.site_ids)

    def _handle_arrival(self, dst: int, env: Envelope) -> None:
        msg = env.msg
        if msg is None:
            msg = env.msg = decode_message(env.payload)
        if dst == SEQUENCER_NODE:
            self._handle_sequencer(msg)
        elif self._sequenced:
            self._arrive_sequenced(dst, msg)
        else:
            self.pending[dst].append(msg)
            self._drain_causal(dst)

    def _arrive_sequenced(self, dst: int, msg: WireMessage) -> None:
        # messages leave the sequencer in index order; per-destination links
        # may reorder them, so hold back until the stream index matches
        hold, nxt = self.seq_hold[dst], self.seq_next[dst]
        hold[msg.index] = msg
        while nxt in hold:
            ready = hold.pop(nxt)
            nxt = self.seq_next[dst] = nxt + 1
            self._deliver(dst, ready)
            unacked = self.unacked[dst] = self.unacked[dst] + 1
            if unacked == ACK_EVERY:
                self._send_ack(dst)

    def _send_ack(self, site: SiteId) -> None:
        """Send the sequencer how many stream messages `site` has delivered.
        The ack draws no latency: it arrives one tick on, or behind the last
        message on the site's link, so it overtakes none of the site's ops."""
        self.unacked[site] = 0
        tick = self.link_free[site] = max(self.now + 1, self.link_free[site])
        self._push(tick, "ack", self._encode(Ack(site, self.seq_next[site])))

    def _deliver(self, dst: int, msg: WireMessage) -> None:
        eo = self.deliver_cb(dst, msg, self.now)
        text = "none" if eo is None else op_token(eo)
        self.trace.append(f"tick={self.now} site={dst} kind=deliver op={text} key={msg.origin}:{msg.seq}")

    def _drain_causal(self, dst: int) -> None:
        pending = self.pending[dst]
        while pending:
            local = self.clock_of(dst)  # changes only by a delivery, which ends the scan
            for i, msg in enumerate(pending):
                if causally_ready(msg, local):
                    del pending[i]
                    self._deliver(dst, msg)
                    break
            else:
                return

    # -- main loop ----------------------------------------------------------

    def run(self) -> List[str]:
        events, pop = self.events, heapq.heappop
        while events:
            tick, _, kind, data = pop(events)
            if kind == "ack":  # writes no trace line, so it leaves `now`, the tick of the last one, as it is
                ack = decode_message(data)
                self.sequencer_server.ack(ack.origin, ack)
                continue
            self.now = tick
            if kind == "gen":
                self._handle_generation(data)
            else:
                dst, env = data
                self._handle_arrival(dst, env)
        return self.trace

    def quiescent(self) -> bool:
        return (
            not self.events
            and all(not q for q in self.pending.values())
            and all(not h for h in self.seq_hold.values())
            and all(not f for f in self.seq_fifo.values())
        )

    def log_gc(self, site: SiteId, collected: int) -> None:
        self.trace.append(f"tick={self.now} site={site} kind=gc op=collected:{collected} key={site}:-")
