from __future__ import annotations

import contextlib
import queue
import socket
import struct
import threading

import pytest

from brickkit import net_bench
from brickkit.errors import ConfigError, IntegrityError, ProtocolError
from brickkit.net_bench import (
    HANDSHAKE,
    MAGIC,
    NET_CSV_HEADER,
    TRAILER,
    VERSION,
    NetReport,
    NetSpec,
    send,
    serve,
    _check_pattern,
    _pattern_record,
)


def loopback_pair(record_bytes=65_536, duration_ms=50, validate=False):
    """Run serve() in a thread against send() and return both reports."""
    ports: queue.Queue[int] = queue.Queue()
    results: dict[str, object] = {}

    def receiver():
        spec = NetSpec(role="receive", host="127.0.0.1", port=0)
        try:
            results["receive"] = serve(
                spec, validate=validate, on_listen=ports.put, accept_timeout=10.0
            )
        except BaseException as exc:  # surfaced by the caller
            results["receive"] = exc

    thread = threading.Thread(target=receiver, daemon=True)
    thread.start()
    port = ports.get(timeout=10.0)
    sender_report = send(
        NetSpec(
            role="send", host="127.0.0.1", port=port,
            record_bytes=record_bytes, duration_ms=duration_ms,
        )
    )
    thread.join(timeout=10.0)
    receiver_report = results["receive"]
    if isinstance(receiver_report, BaseException):
        raise receiver_report
    return sender_report, receiver_report


# ---------- spec validation ----------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"role": "proxy"},
        {"record_bytes": 0},
        {"record_bytes": 8 * 1024 * 1024 + 1},
        {"duration_ms": 0},
        {"port": 70_000},
        {"port": -1},
    ],
)
def test_spec_rejects_bad_values(kwargs):
    base = dict(role="send", host="127.0.0.1", port=9000)
    base.update(kwargs)
    with pytest.raises(ConfigError):
        NetSpec(**base)


def test_role_and_function_must_agree():
    with pytest.raises(ConfigError):
        serve(NetSpec(role="send", host="127.0.0.1", port=0))
    with pytest.raises(ConfigError):
        send(NetSpec(role="receive", host="127.0.0.1", port=1))


# ---------- pattern ----------

def test_pattern_record_rolls_across_boundaries():
    stream = _pattern_record(0, 1000)
    assert stream == bytes(i % 256 for i in range(1000))
    assert _pattern_record(700, 100) == stream[700:800]
    assert _pattern_record(255, 3) == bytes([255, 0, 1])


def test_check_pattern_names_the_first_bad_byte():
    good = bytearray(_pattern_record(512, 300))
    _check_pattern(bytes(good), 512)
    good[40] ^= 0x01
    with pytest.raises(IntegrityError, match="stream position 552$"):
        _check_pattern(bytes(good), 512)


# ---------- loopback behavior ----------

@pytest.mark.parametrize("record_bytes", [1, 4096, 65_536])
def test_loopback_counts_agree(record_bytes):
    sender, receiver = loopback_pair(record_bytes=record_bytes)
    assert sender.bytes_transferred == receiver.bytes_transferred
    assert sender.bytes_transferred % record_bytes == 0
    assert sender.bytes_transferred >= record_bytes
    assert receiver.record_bytes == record_bytes  # learned from the handshake


def test_loopback_with_validation_passes():
    sender, receiver = loopback_pair(record_bytes=4096, validate=True)
    assert sender.bytes_transferred == receiver.bytes_transferred


@pytest.mark.parametrize("record_bytes", [1, 1000, 65_537, net_bench.MAX_RECORD_BYTES])
def test_validated_loopback_records_start_anywhere_in_the_pattern(record_bytes):
    # Records of these sizes start at stream positions that are not multiples of 256.
    sender, receiver = loopback_pair(record_bytes=record_bytes, validate=True)
    assert sender.bytes_transferred == receiver.bytes_transferred


def test_unit_law_bits_are_eight_times_bytes():
    report = NetReport(
        role="send", record_bytes=1, elapsed_seconds=2.0,
        bytes_transferred=10_000_000, cpu_percent=None,
    )
    assert report.mbps_bytes == 5.0
    assert report.mbps_bits == 40.0
    text = "\n".join(report.text_lines())
    assert "5.00 MBps (= 40.00 Mbps)" in text


def test_csv_row_matches_header():
    sender, receiver = loopback_pair()
    for report in (sender, receiver):
        row = report.csv_row().split(",")
        assert len(row) == len(NET_CSV_HEADER.split(",")) == 6
        assert int(row[3]) == report.bytes_transferred
        assert float(row[4]) == pytest.approx(report.mbps_bytes, rel=0.01)


# ---------- raw-socket adversaries ----------

def start_receiver(validate=False):
    ports: queue.Queue[int] = queue.Queue()
    outcome: dict[str, object] = {}

    def run():
        spec = NetSpec(role="receive", host="127.0.0.1", port=0)
        try:
            outcome["report"] = serve(
                spec, validate=validate, on_listen=ports.put, accept_timeout=10.0
            )
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return ports.get(timeout=10.0), thread, outcome


def test_receiver_rejects_bad_magic():
    port, thread, outcome = start_receiver()
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
        conn.sendall(HANDSHAKE.pack(b"HTTP", VERSION, 1, 1))
    thread.join(timeout=10.0)
    assert isinstance(outcome["error"], ProtocolError)
    assert "magic" in str(outcome["error"])


def test_receiver_rejects_future_version():
    port, thread, outcome = start_receiver()
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
        conn.sendall(HANDSHAKE.pack(MAGIC, VERSION + 1, 1, 1))
    thread.join(timeout=10.0)
    assert isinstance(outcome["error"], ProtocolError)
    assert "version" in str(outcome["error"])


def test_receiver_rejects_truncated_handshake():
    port, thread, outcome = start_receiver()
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
        conn.sendall(MAGIC)  # then hang up mid-handshake
    thread.join(timeout=10.0)
    assert isinstance(outcome["error"], ProtocolError)
    assert "mid-handshake" in str(outcome["error"])


def test_zero_byte_stream_is_a_clean_run():
    port, thread, outcome = start_receiver(validate=True)
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
        conn.sendall(HANDSHAKE.pack(MAGIC, VERSION, 512, 1000))
        conn.shutdown(socket.SHUT_WR)
        echoed = conn.recv(TRAILER.size)
    thread.join(timeout=10.0)
    report = outcome["report"]
    assert report.bytes_transferred == 0
    assert TRAILER.unpack(echoed) == (0,)


def test_validating_receiver_pinpoints_corruption():
    port, thread, outcome = start_receiver(validate=True)
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
        conn.sendall(HANDSHAKE.pack(MAGIC, VERSION, 512, 1000))
        body = bytearray(_pattern_record(0, 2048))
        body[1500] ^= 0xFF
        conn.sendall(bytes(body))
        conn.shutdown(socket.SHUT_WR)
    thread.join(timeout=10.0)
    assert isinstance(outcome["error"], IntegrityError)
    assert "stream position 1500" in str(outcome["error"])


def test_validating_receiver_pinpoints_corruption_past_the_first_buffer():
    port, thread, outcome = start_receiver(validate=True)
    body = bytearray(_pattern_record(0, 2_000_000))
    body[1_500_001] ^= 0xFF
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as conn:
        conn.sendall(HANDSHAKE.pack(MAGIC, VERSION, 1000, 1000))
        with contextlib.suppress(ConnectionError):  # the receiver hangs up at the bad byte
            for start in range(0, len(body), 1000):
                conn.sendall(body[start : start + 1000])
    thread.join(timeout=10.0)
    assert isinstance(outcome.get("error"), IntegrityError)
    assert str(outcome["error"]).endswith("stream position 1500001")


def test_sender_detects_count_mismatch():
    ports: queue.Queue[int] = queue.Queue()

    def lying_receiver():
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            ports.put(listener.getsockname()[1])
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10.0)
                received = 0
                saw_handshake = False
                while True:
                    chunk = conn.recv(1 << 20)
                    if not chunk:
                        break
                    received += len(chunk)
                    saw_handshake = saw_handshake or received >= HANDSHAKE.size
                assert saw_handshake
                conn.sendall(TRAILER.pack(received + 7))  # off by seven

    thread = threading.Thread(target=lying_receiver, daemon=True)
    thread.start()
    port = ports.get(timeout=10.0)
    spec = NetSpec(role="send", host="127.0.0.1", port=port, duration_ms=20)
    with pytest.raises(IntegrityError, match="byte count mismatch"):
        send(spec)
    thread.join(timeout=10.0)


def test_sender_detects_receiver_hangup_before_trailer():
    ports: queue.Queue[int] = queue.Queue()

    def mute_receiver():
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            ports.put(listener.getsockname()[1])
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10.0)
                while conn.recv(1 << 20):
                    pass  # drain, then close without echoing a trailer

    thread = threading.Thread(target=mute_receiver, daemon=True)
    thread.start()
    port = ports.get(timeout=10.0)
    spec = NetSpec(role="send", host="127.0.0.1", port=port, duration_ms=20)
    with pytest.raises(ProtocolError, match="mid-trailer"):
        send(spec)
    thread.join(timeout=10.0)


def test_sender_gives_up_on_a_stalled_receiver(monkeypatch):
    monkeypatch.setattr(net_bench, "SEND_STALL_SECONDS", 0.5)
    ports: queue.Queue[int] = queue.Queue()
    release = threading.Event()

    def stalled_receiver():
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            ports.put(listener.getsockname()[1])
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10.0)
                conn.recv(HANDSHAKE.size, socket.MSG_WAITALL)
                release.wait(timeout=30.0)  # never read again until the test ends

    receiver = threading.Thread(target=stalled_receiver, daemon=True)
    receiver.start()
    port = ports.get(timeout=10.0)
    outcome: dict[str, BaseException] = {}

    def sender():
        spec = NetSpec(
            role="send", host="127.0.0.1", port=port,
            record_bytes=1 << 20, duration_ms=30_000,
        )
        try:
            send(spec)
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=sender, daemon=True)
    thread.start()
    thread.join(timeout=10.0)
    release.set()
    stalled = thread.is_alive()
    thread.join(timeout=10.0)
    receiver.join(timeout=10.0)
    assert not stalled, "send() still blocked on a receiver that stopped reading"
    assert isinstance(outcome.get("error"), ProtocolError)
    assert "stalled" in str(outcome["error"])


def test_handshake_layout_is_frozen():
    assert HANDSHAKE.size == 24
    packed = HANDSHAKE.pack(MAGIC, VERSION, 65_536, 10_000)
    assert packed == b"NBX1" + struct.pack(">I", 1) + struct.pack(">QQ", 65_536, 10_000)
