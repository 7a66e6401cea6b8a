"""Memory-to-memory TCP throughput: one sender, one receiver, one stream.

Wire protocol, fixed:

    handshake  4-byte magic "NBX1", u32 version = 1,
               u64 record_bytes, u64 duration_ms   (all big-endian)
    data       records of record_bytes until the sender half-closes
    trailer    receiver replies with a u64 big-endian count of data
               bytes received, then both sides close

Data bytes follow one deterministic rolling pattern, byte i of the stream
is i mod 256, so a receiver can optionally verify content and point at
the first corrupted byte.

Throughput is reported in 10^6 BYTES per second; the bits figure is
derived as exactly 8 times that and shown alongside, because confusing
the two units is the classic way to misjudge a transfer by a factor of 8.
cpu_percent is the CPU time of the thread that ran that end, so the two
ends of a loopback run in one process each count only their own work.
"""

from __future__ import annotations

import socket
import struct
import time
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError, IntegrityError, ProtocolError

ROLE_SEND = "send"
ROLE_RECEIVE = "receive"

MAGIC = b"NBX1"
VERSION = 1
HANDSHAKE = struct.Struct(">4sIQQ")
TRAILER = struct.Struct(">Q")

DEFAULT_RECORD_BYTES = 65_536
MAX_RECORD_BYTES = 8 * 1024 * 1024
_RECV_CHUNK = 1 << 20
# A sender blocked this long in one record's send or in the wait for the
# trailer gives up: the receiver has stopped reading or answering, and
# without a bound the run never ends.
SEND_STALL_SECONDS = 30.0
_PATTERN = bytes(range(256))


@dataclass(frozen=True)
class NetSpec:
    role: str
    host: str
    port: int
    record_bytes: int = DEFAULT_RECORD_BYTES
    duration_ms: int = 10_000

    def __post_init__(self) -> None:
        if self.role not in (ROLE_SEND, ROLE_RECEIVE):
            raise ConfigError(f"role must be {ROLE_SEND!r} or {ROLE_RECEIVE!r}")
        if not 1 <= self.record_bytes <= MAX_RECORD_BYTES:
            raise ConfigError(f"record_bytes must be in [1, {MAX_RECORD_BYTES}]")
        if self.duration_ms < 1:
            raise ConfigError("duration_ms must be >= 1")
        if not 0 <= self.port <= 65535:
            raise ConfigError(f"port {self.port} out of range")


@dataclass(frozen=True)
class NetReport:
    role: str
    record_bytes: int
    elapsed_seconds: float
    bytes_transferred: int
    cpu_percent: float | None

    @property
    def mbps_bytes(self) -> float:
        """10^6 bytes per second."""
        return self.bytes_transferred / self.elapsed_seconds / 1e6

    @property
    def mbps_bits(self) -> float:
        """10^6 bits per second: exactly 8 x the byte rate."""
        return 8.0 * self.mbps_bytes

    def csv_row(self) -> str:
        cpu = "" if self.cpu_percent is None else f"{self.cpu_percent:.1f}"
        return (
            f"{self.role},{self.record_bytes},{self.elapsed_seconds:.6f},"
            f"{self.bytes_transferred},{self.mbps_bytes:.2f},{cpu}"
        )

    def text_lines(self) -> list[str]:
        cpu = "n/a" if self.cpu_percent is None else f"{self.cpu_percent:.1f}%"
        return [
            f"{self.role}: {self.bytes_transferred:,} bytes"
            f" in {self.elapsed_seconds:.3f} s",
            f"  throughput   {self.mbps_bytes:.2f} MBps (= {self.mbps_bits:.2f} Mbps)",
            f"  record       {self.record_bytes:,} bytes, cpu {cpu}",
        ]


NET_CSV_HEADER = "role,record_bytes,elapsed_s,bytes,mbps,cpu_percent"


def _recv_exactly(conn: socket.socket, count: int, what: str) -> bytes:
    parts = bytearray()
    while len(parts) < count:
        chunk = conn.recv(count - len(parts))
        if not chunk:
            raise ProtocolError(f"connection closed mid-{what}")
        parts.extend(chunk)
    return bytes(parts)


def _pattern_record(position: int, size: int) -> bytes:
    """The size bytes of the rolling pattern starting at stream position."""
    repeated = _PATTERN * (size // 256 + 2)
    start = position % 256
    return repeated[start : start + size]


def _check_pattern(chunk: bytes, position: int) -> None:
    expected = _pattern_record(position, len(chunk))
    if chunk != expected:
        bad = next(i for i in range(len(chunk)) if chunk[i] != expected[i])
        raise IntegrityError(f"corrupt byte at stream position {position + bad}")


def _stop_clock(
    role: str, record_bytes: int, total: int, started: float, cpu_start: float
) -> NetReport:
    """Stop one end's clock (perf_counter) and thread CPU time (thread_time), and report."""
    elapsed = max(time.perf_counter() - started, 1e-9)
    cpu_used = time.thread_time() - cpu_start
    return NetReport(role, record_bytes, elapsed, total, 100.0 * cpu_used / elapsed)


def serve(
    spec: NetSpec,
    validate: bool = False,
    on_listen: Callable[[int], None] | None = None,
    accept_timeout: float | None = None,
) -> NetReport:
    """Accept one sender, count its stream, echo the count back.

    A handshake with the wrong magic or version closes the connection and
    raises; no report is produced for a peer speaking another protocol.
    """
    if spec.role != ROLE_RECEIVE:
        raise ConfigError("serve() requires a receive-role spec")
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((spec.host, spec.port))
        listener.listen(1)
        listener.settimeout(accept_timeout)
        if on_listen is not None:
            on_listen(listener.getsockname()[1])
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(accept_timeout)
            raw = _recv_exactly(conn, HANDSHAKE.size, "handshake")
            magic, version, record_bytes, _duration = HANDSHAKE.unpack(raw)
            if magic != MAGIC:
                raise ProtocolError(f"bad handshake magic {magic!r}")
            if version != VERSION:
                raise ProtocolError(f"unsupported protocol version {version}")

            # ring[p % 256:] continues the pattern from stream position p for a whole buffer.
            view = memoryview(bytearray(_RECV_CHUNK))
            ring = _pattern_record(0, _RECV_CHUNK + 255) if validate else b""
            total = 0
            cpu_start = time.thread_time()
            started = time.perf_counter()
            while count := conn.recv_into(view):
                if validate and not ring.startswith(view[:count], total % 256):
                    _check_pattern(bytes(view[:count]), total)
                total += count
            report = _stop_clock(ROLE_RECEIVE, record_bytes, total, started, cpu_start)
            conn.sendall(TRAILER.pack(total))
    return report


def send(spec: NetSpec) -> NetReport:
    """Stream pattern records for the configured duration, then reconcile.

    The receiver's echoed count must equal the sender's own count; any
    difference means the stream was damaged in flight and is an integrity
    failure, not a protocol one.
    """
    if spec.role != ROLE_SEND:
        raise ConfigError("send() requires a send-role spec")
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as conn:
        conn.connect((spec.host, spec.port))
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn.settimeout(SEND_STALL_SECONDS)
        try:
            conn.sendall(HANDSHAKE.pack(MAGIC, VERSION, spec.record_bytes, spec.duration_ms))

            # ring[p % 256:] continues the pattern from stream position p for a whole record.
            ring = memoryview(_pattern_record(0, spec.record_bytes + 255))
            total = 0
            deadline_clock = spec.duration_ms / 1000.0
            cpu_start = time.thread_time()
            started = time.perf_counter()
            while time.perf_counter() - started < deadline_clock:
                conn.sendall(ring[total % 256 : total % 256 + spec.record_bytes])
                total += spec.record_bytes
            report = _stop_clock(ROLE_SEND, spec.record_bytes, total, started, cpu_start)
            conn.shutdown(socket.SHUT_WR)
            (echoed,) = TRAILER.unpack(_recv_exactly(conn, TRAILER.size, "trailer"))
        except socket.timeout:
            raise ProtocolError(
                "receiver stalled: a send or the trailer took over"
                f" {SEND_STALL_SECONDS:g} s"
            ) from None

    if echoed != total:
        raise IntegrityError(
            f"byte count mismatch: sent {total}, receiver counted {echoed}"
        )
    return report
