"""Site container and wire formats: envelope/payload roundtrips, strict
decoding, call order, mirror invariant."""

import random
import struct
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from coedit.model import Delete, Insert, NoOp, TimestampedOp, VectorClock
from coedit.framework import (
    EngineInvariantError,
    Site,
    WireFormatError,
    decode_message,
    encode_envelope,
    decode_envelope,
    encode_message,
    message_meta,
    message_text,
)
from coedit.ot import ClientOpMsg, OtSite, SequencerClient, SequencerServer, ServerOpMsg
from coedit.woot import DeleteId, InsertId, ObjectId, START, END, TOMB, WootSite

from conftest import stamp


TYPED = st.sampled_from([" ", "'", '"', "\n", "\t", "\\", "\U0001F600", "\U00010348", "\u00e9", "\x7f"])
IDS = st.one_of(st.sampled_from([START, END]), st.builds(ObjectId, st.integers(-(2**40), 2**40), st.integers(0, 2**40)))


class TestTraceToken:
    """A WOOT op's trace token is spelled field by field; it must stay byte
    for byte the records' repr with no space, which every golden digest of
    a WOOT run hashes."""

    @given(st.one_of(TYPED, st.characters(blacklist_characters="\x00")), IDS, IDS, IDS)
    def test_insert_token_matches_the_record_repr(self, char, oid, prev, nxt):
        op = InsertId(char, oid, prev, nxt)
        token = message_text(TimestampedOp(op, 1, 1, VectorClock({1: 1})))
        assert token == str(op).replace(" ", "") and " " not in token

    @given(IDS)
    def test_delete_token_matches_the_record_repr(self, target):
        op = DeleteId(target)
        assert message_text(TimestampedOp(op, 1, 1, VectorClock({1: 1}))) == str(op).replace(" ", "")


class TestWireFormats:
    def roundtrip(self, msg):
        assert decode_message(encode_message(msg)) == msg

    def test_timestamped_op(self):
        self.roundtrip(stamp(Insert(3, "c"), 0, 1))
        self.roundtrip(stamp(Delete(0), 2, 4, {0: 1, 1: 2}))

    def test_client_op(self):
        self.roundtrip(ClientOpMsg(Insert(0, "x"), 1, 1, VectorClock({1: 1}), seen=7))

    def test_server_op(self):
        self.roundtrip(ServerOpMsg(Delete(2), 1, 3, VectorClock({0: 5, 1: 3}), index=12))
        self.roundtrip(ServerOpMsg(NoOp(), 1, 4, VectorClock({1: 4}), index=13))

    def test_woot_insert(self):
        op = TimestampedOp(InsertId("q", ObjectId(1, 2), START, ObjectId(-1, 3)), 1, 2, VectorClock({1: 2}))
        self.roundtrip(op)

    def test_woot_delete(self):
        op = TimestampedOp(DeleteId(ObjectId(1, 1)), 0, 9, VectorClock({0: 9, 1: 1}))
        self.roundtrip(op)

    def test_unicode_character(self):
        for ch in ("é", " ", "\n", "\t", "\U0001f600"):
            self.roundtrip(stamp(Insert(0, ch), 0, 1))
            self.roundtrip(ClientOpMsg(Insert(1, ch), 1, 1, VectorClock({1: 1}), seen=2))
            self.roundtrip(ServerOpMsg(Insert(2, ch), 1, 1, VectorClock({1: 1}), index=3))
        self.roundtrip(TimestampedOp(InsertId("世", ObjectId(0, 1), START, END), 0, 1, VectorClock({0: 1})))

    def test_envelope_fields(self):
        payload = b"hello"
        data = encode_envelope(3, 7, VectorClock({3: 7, 1: 2}), payload)
        origin, seq, clock, got = decode_envelope(data)
        assert (origin, seq, clock, got) == (3, 7, VectorClock({1: 2, 3: 7}), payload)
        assert hash(clock) == hash(VectorClock({1: 2, 3: 7}))

    def test_message_meta(self):
        msg = ClientOpMsg(Insert(0, "x"), 2, 5, VectorClock({0: 1, 2: 5}), seen=3)
        assert message_meta(msg) == (2, 5, VectorClock({0: 1, 2: 5}))


SAMPLES = [
    stamp(Insert(3, "c"), 0, 1, {1: 2}),
    ClientOpMsg(Delete(4), 1, 2, VectorClock({1: 2}), seen=7),
    ServerOpMsg(NoOp(), 2, 1, VectorClock({0: 3, 2: 1}), index=9),
    TimestampedOp(InsertId("q", ObjectId(1, 2), START, ObjectId(-1, 3)), 1, 2, VectorClock({1: 2})),
    TimestampedOp(DeleteId(ObjectId(1, 1)), 0, 9, VectorClock({0: 9, 1: 1})),
]


def _woot_ids(sid: int, seq: int) -> bytes:
    """A WOOT insert's id, prev and next: sid.seq between the sentinels."""
    return struct.pack(">qQqQqQ", sid, seq, -(2**31), 0, 2**31, 0)


_WOOT_IDS = _woot_ids(0, 1)


def _envelope(payload: bytes) -> bytes:
    return encode_envelope(0, 1, VectorClock({0: 1}), payload)


class TestStrictDecoding:
    def test_error_is_a_value_error(self):
        assert issubclass(WireFormatError, ValueError)

    @pytest.mark.parametrize("msg", SAMPLES, ids=list("TCSWX"))
    def test_trailing_bytes_rejected(self, msg):
        with pytest.raises(WireFormatError):
            decode_message(encode_message(msg) + b"junk")

    @pytest.mark.parametrize("msg", SAMPLES, ids=list("TCSWX"))
    def test_every_truncation_rejected(self, msg):
        data = encode_message(msg)
        for n in range(len(data)):
            with pytest.raises(WireFormatError):
                decode_message(data[:n])

    @pytest.mark.parametrize("payload", [
        b"Z",  # unknown payload kind
        b"TQ",  # unknown op kind
        b"TI" + struct.pack(">II", 0, 1) + b"\xff",  # bad UTF-8
        b"TI" + struct.pack(">II", 0, 2) + b"ab",  # an insert carries one character
        b"W" + struct.pack(">I", 0) + _WOOT_IDS,  # so does a WOOT insert
        b"W" + struct.pack(">I", 2) + b"ab" + _WOOT_IDS,
        b"W" + struct.pack(">I", 1) + b"q" + _woot_ids(7, 1),  # an insert's id is its message's origin.seq
        b"TI" + struct.pack(">II", 0, 1) + b"\x00",  # no document character is NUL
        b"C" + struct.pack(">Q", 0) + b"I" + struct.pack(">II", 0, 1) + b"\x00",
        b"S" + struct.pack(">Q", 0) + b"I" + struct.pack(">II", 0, 1) + b"\x00",
        b"W" + struct.pack(">I", 1) + b"\x00" + _woot_ids(0, 1),
    ], ids=["payload-kind", "op-kind", "utf8", "two-chars", "woot-no-char", "woot-two-chars", "woot-foreign-id",
            "nul", "client-nul", "server-nul", "woot-nul"])
    def test_bad_payload_rejected(self, payload):
        with pytest.raises(WireFormatError):
            decode_message(_envelope(payload))

    @pytest.mark.parametrize("payload", [
        b"W" + struct.pack(">I", 1) + b"q" + struct.pack(">qQqQqQ", 0, 1, 3, 9, 2**31, 0),  # prev 3.9, unseen
        b"W" + struct.pack(">I", 1) + b"q" + struct.pack(">qQqQqQ", 0, 1, -(2**31), 0, 0, 1),  # next is its own id
        b"W" + struct.pack(">I", 1) + b"q" + struct.pack(">qQqQqQ", 0, 1, -(2**31), 0, 0, 0),  # next 0.0
        b"X" + struct.pack(">qQ", 0, 1),  # a delete of its own (origin, seq)
        b"X" + struct.pack(">qQ", 2, 1),  # of an insert its clock does not cover
        b"X" + struct.pack(">qQ", -(2**31), 5),  # of a non-sentinel below every sid
    ], ids=["unseen-prev", "own-next", "seq-0-next", "own-target", "unseen-target", "low-sid-target"])
    def test_woot_id_outside_causal_past_rejected(self, payload):
        """Every id a WOOT message names, other than the sentinels and the
        initial objects, is an insert its clock covers and not its own."""
        with pytest.raises(WireFormatError):
            decode_message(_envelope(payload))

    def test_seq_outside_clock_rejected(self):
        data = encode_envelope(0, 2, VectorClock({0: 1}), b"TN")
        with pytest.raises(WireFormatError):
            decode_message(data)

    @pytest.mark.parametrize("seq, entries", [(0, {}), (2, {0: 1})], ids=["seq-0", "seq-outside-clock"])
    @pytest.mark.parametrize("kind", "WX")
    def test_woot_stamp_checked(self, kind, seq, entries):
        """A WOOT message's seq is at least 1 and its clock's entry for its origin."""
        payload = b"W" + struct.pack(">I", 1) + b"q" + _woot_ids(0, seq) if kind == "W" else b"X" + struct.pack(">qQ", 0, 9)
        with pytest.raises(WireFormatError):
            decode_message(encode_envelope(0, seq, VectorClock(entries), payload))

    @pytest.mark.parametrize("entries", [
        [(0, 0), (1, 1)],
        [(0, 0), (1, 1), (1, 1)],
        [(1, 1), (1, 1)],
        [(2, 1), (1, 1)],
    ], ids=["zero-count", "zero-and-repeat", "repeated-site", "descending-sites"])
    def test_non_canonical_clock_rejected(self, entries):
        """Each clock has one encoding: sites strictly ascending, no zero count."""
        data = (
            struct.pack(">IQI", 1, 1, len(entries))
            + b"".join(struct.pack(">IQ", s, n) for s, n in entries)
            + struct.pack(">I", 2) + b"TN"
        )
        with pytest.raises(WireFormatError):
            decode_message(data)

    def test_mutated_envelopes_decode_or_raise_wire_error(self):
        rng = random.Random(2026)
        encoded = [encode_message(m) for m in SAMPLES]
        outcomes = {"decoded": 0, "rejected": 0}
        for _ in range(500):
            data = bytearray(rng.choice(encoded))
            for _ in range(rng.randint(1, 3)):
                if not data:
                    break
                pos = rng.randrange(len(data))
                action = rng.randrange(4)
                if action == 0:
                    data[pos] = rng.randrange(256)
                elif action == 1:
                    del data[pos]
                elif action == 2:
                    data.insert(pos, rng.randrange(256))
                else:
                    del data[pos:]
            try:
                decode_message(bytes(data))
                outcomes["decoded"] += 1
            except WireFormatError:
                outcomes["rejected"] += 1
        assert outcomes["decoded"] > 0 and outcomes["rejected"] > 0


class TestSiteContainer:
    def test_generate_applies_externally_first(self):
        site = Site(id=0, engine=OtSite(site=0, state="abe"), external="abe")
        msg = site.generate(Delete(1))
        assert site.external == "ae"
        assert message_meta(msg)[:2] == (0, 1)

    def test_generate_rejects_noop(self):
        site = Site(id=0, engine=OtSite(site=0, state="ab"), external="ab")
        with pytest.raises(ValueError):
            site.generate(NoOp())

    def test_deliver_rejects_own_message(self):
        a = Site(id=0, engine=OtSite(site=0, state="ab"), external="ab")
        msg = a.generate(Delete(0))
        with pytest.raises(ValueError):
            a.deliver(msg)

    def test_ot_payload_is_position_based(self):
        site = Site(id=0, engine=OtSite(site=0, state="abe"), external="abe")
        msg = site.generate(Delete(1))
        assert isinstance(msg, TimestampedOp) and msg.op == Delete(1)

    def test_woot_payload_is_identifier_based(self):
        site = Site(id=0, engine=WootSite.create(0, "abe"), external="abe")
        msg = site.generate(Delete(1))
        assert isinstance(msg.op, DeleteId)

    def test_deliver_both_engines_figure_case(self):
        for make in (lambda i: OtSite(site=i, state="abe"), lambda i: WootSite.create(i, "abe")):
            a = Site(id=0, engine=make(0), external="abe")
            b = Site(id=1, engine=make(1), external="abe")
            o1 = a.generate(Delete(1))
            o2 = b.generate(Insert(2, "c"))
            assert a.deliver(o2) == Insert(1, "c") and a.external == "ace"
            assert b.deliver(o1) == Delete(1) and b.external == "ace"

    def test_sequencer_echo_delivery(self):
        a = Site(id=0, engine=SequencerClient(site=0, state="ab"), external="ab")
        server = SequencerServer(client_ids=[0], state="ab")
        out = server.process(0, a.generate(Insert(2, "c")))
        assert a.deliver(out) is None and a.external == "abc"

    def test_mirror_violation_detected(self):
        engine = OtSite(site=0, state="ab")
        site = Site(id=0, engine=engine, external="ab")
        engine.state = "corrupted"
        with pytest.raises(EngineInvariantError):
            site.generate(Insert(0, "x"))

    def test_woot_value_mirror_checked_on_deliver(self):
        a = Site(id=0, engine=WootSite.create(0, "ab"), external="ab")
        b = Site(id=1, engine=WootSite.create(1, "ab"), external="ab")
        msg = b.generate(Insert(1, "x"))
        # sabotage the internal sequence so value(IS) disagrees with the text:
        # 'a' is hidden in its block's shown string, and in nothing else
        block = a.engine.istate.blocks[0]
        block.shown = block.shown[:1] + TOMB + block.shown[2:]
        with pytest.raises(EngineInvariantError):
            a.deliver(msg)

    def test_woot_duplicate_insert_replays_nothing(self):
        """The same insert delivered twice is placed once, and the visible
        text takes it once."""
        a = Site(id=0, engine=WootSite.create(0, "ab"), external="ab")
        b = Site(id=1, engine=WootSite.create(1, "ab"), external="ab")
        msg = b.generate(Insert(1, "x"))
        assert a.deliver(msg) == Insert(1, "x")
        assert a.deliver(msg) == NoOp() and a.external == a.engine.state == "axb"

    def test_woot_position_one_off_caught_on_deliver(self):
        """A replica whose conversion to a position is one off replays the
        insert one place right; the Site finds that on this op."""
        a = Site(id=0, engine=WootSite.create(0, "ab"), external="ab")
        b = Site(id=1, engine=WootSite.create(1, "ab"), external="ab")
        msg = b.generate(Insert(1, "x"))
        seq = a.engine.istate
        to_pos = seq.id_to_pos
        seq.id_to_pos = lambda op: replace(to_pos(op), position=to_pos(op).position + 1)
        with pytest.raises(EngineInvariantError, match="'axb' != visible text 'abx'"):
            a.deliver(msg)

    def test_woot_anchors_one_off_caught_on_generate(self):
        """A replica whose conversion to ids anchors an insert one slot right
        places it there; the Site finds that on this op."""
        a = Site(id=0, engine=WootSite.create(0, "ab"), external="ab")
        seq = a.engine.istate
        to_id = seq.pos_to_id
        seq.pos_to_id = lambda eo, site, n: to_id(replace(eo, position=eo.position + 1), site, n)
        with pytest.raises(EngineInvariantError, match="'axb' != visible text 'xab'"):
            a.generate(Insert(0, "x"))
