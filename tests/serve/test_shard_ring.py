"""Consistent-hash ring and the shard wire protocol."""

import math
import socket
import struct
import threading

import pytest

from repro.serve.shard.protocol import (
    ConnectionClosed,
    FrameTimeout,
    ProtocolError,
    recv_frame,
    send_frame,
)
from repro.serve import mutation
from repro.serve.shard.ring import HashRing, edge_key


class TestEdgeKey:
    def test_directional(self):
        assert edge_key("a", "b") != edge_key("b", "a")

    def test_stable_format(self):
        assert edge_key("SRC", "DST") == "SRC->DST"


class TestHashRing:
    def test_lookup_is_deterministic_and_total(self):
        ring = HashRing(["shard-0", "shard-1", "shard-2"])
        keys = [edge_key(f"s{i}", f"d{j}") for i in range(8)
                for j in range(8)]
        first = [ring.lookup(k) for k in keys]
        again = [ring.lookup(k) for k in keys]
        assert first == again
        assert set(first) <= {"shard-0", "shard-1", "shard-2"}

    def test_every_shard_gets_keys(self):
        ring = HashRing([f"shard-{i}" for i in range(4)])
        keys = [edge_key(f"s{i}", f"d{j}") for i in range(16)
                for j in range(16)]
        dist = ring.distribution(keys)
        assert set(dist) == set(ring.shards)
        assert all(count > 0 for count in dist.values())

    def test_single_shard_takes_everything(self):
        ring = HashRing(["only"])
        assert ring.lookup("anything") == "only"

    def test_unaffected_keys_stay_put_when_shard_added(self):
        """The consistent-hashing property: growing the ring only moves
        keys *onto* the new shard, never between surviving shards."""
        before = HashRing(["shard-0", "shard-1", "shard-2"])
        after = HashRing(["shard-0", "shard-1", "shard-2", "shard-3"])
        keys = [edge_key(f"s{i}", f"d{j}") for i in range(12)
                for j in range(12)]
        for k in keys:
            if after.lookup(k) != "shard-3":
                assert after.lookup(k) == before.lookup(k)

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing(["a", "a"])
        with pytest.raises(ValueError):
            HashRing(["a"], replicas=0)


class TestWireFloat:
    """Floats in mutation records cross a strict-JSON frame intact."""

    def _hop(self, record):
        a, b = socket.socketpair()
        try:
            send_frame(a, {"mutations": [record]})
            return mutation.decode(recv_frame(b, timeout=5.0)["mutations"][0])
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("value", [0.0, 1.5, -2.25, 1e300])
    def test_finite_roundtrip_unchanged(self, value):
        record = mutation.progress(1, rate=value, expected_end=value)
        assert record[2:] == [value, value]
        assert self._hop(record).args[1:] == (value, value)

    def test_none_passes_through(self):
        record = mutation.progress(1, rate=2.0)
        assert record[3] is None
        assert self._hop(record).args == (1, 2.0, None)

    def test_nonfinite_survive_strict_json(self):
        record = mutation.progress(1, rate=math.inf, expected_end=-math.inf)
        assert isinstance(record[2], str)
        assert self._hop(record).args[1:] == (math.inf, -math.inf)
        nan = self._hop(mutation.progress(1, rate=math.nan)).args[1]
        assert math.isnan(nan)


class TestFraming:
    def _pair(self):
        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        return a, b

    def test_roundtrip(self):
        a, b = self._pair()
        try:
            send_frame(a, {"op": "ping", "id": 7})
            assert recv_frame(b, timeout=5.0) == {"op": "ping", "id": 7}
        finally:
            a.close()
            b.close()

    def test_closed_peer_raises_connection_closed(self):
        a, b = self._pair()
        a.close()
        try:
            with pytest.raises(ConnectionClosed):
                recv_frame(b, timeout=5.0)
        finally:
            b.close()

    def test_silence_raises_frame_timeout(self):
        a, b = self._pair()
        try:
            with pytest.raises(FrameTimeout):
                recv_frame(b, timeout=0.05)
        finally:
            a.close()
            b.close()

    def test_corrupt_payload_fails_crc(self):
        a, b = self._pair()
        try:
            payload = b'{"op": "ping"}'
            # Valid length, deliberately wrong checksum.
            a.sendall(struct.pack(">II", len(payload), 0) + payload)
            with pytest.raises(ProtocolError, match="(?i)crc|checksum"):
                recv_frame(b, timeout=5.0)
        finally:
            a.close()
            b.close()

    def test_oversized_frame_rejected(self):
        a, b = self._pair()
        try:
            a.sendall(struct.pack(">II", 2**31, 0))
            with pytest.raises(ProtocolError):
                recv_frame(b, timeout=5.0)
        finally:
            a.close()
            b.close()

    def test_large_frame_roundtrips(self):
        """Payloads beyond one socket buffer must reassemble exactly
        (the replication log replays in chunks this size)."""
        a, b = self._pair()
        payload = {"blob": "x" * 600_000}
        try:
            t = threading.Thread(target=send_frame, args=(a, payload))
            t.start()
            assert recv_frame(b, timeout=10.0) == payload
            t.join(timeout=10)
        finally:
            a.close()
            b.close()
