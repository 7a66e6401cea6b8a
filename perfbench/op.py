"""Run one benchmark operation in a fresh interpreter and print its figures.

Usage: python3 op.py '<request JSON>'

The parent (run.py) starts one of these per operation, so every operation
starts from a cold heap and its peak RSS is that of the operation alone.
Only the library call is timed; interpreter start and imports are not.

With "trace" set in the request, the public layer functions are wrapped
before the call, and each call becomes a span (name, start, end, thread).
The spans are kept in memory and printed with the result.
"""

from __future__ import annotations

import functools
import json
import queue
import resource
import sys
import threading
import time
from pathlib import Path

# (module, attribute, span name). brick imports the manifest functions by
# name, so those are wrapped where brick looks them up as well.
TRACED = (
    ("payload", "encode_payload", "payload.encode_payload"),
    ("payload", "decode_payload", "payload.decode_payload"),
    ("payload", "derive_key", "payload.derive_key"),
    ("payload", "sha256_hex", "payload.sha256_hex"),
    ("payload", "sha256_file", "payload.sha256_file"),
    ("manifest", "parse_manifest", "manifest.parse_manifest"),
    ("manifest", "serialize_manifest", "manifest.serialize_manifest"),
    ("brick", "parse_manifest", "manifest.parse_manifest"),
    ("brick", "serialize_manifest", "manifest.serialize_manifest"),
    ("io_bench", "fill_block", "io_bench.fill_block"),
)


class Tracer:
    """Wraps layer functions; a function a refactor removed is listed as absent."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.absent: list[str] = []

    def install(self) -> None:
        import importlib

        for module_name, attribute, span_name in TRACED:
            module = importlib.import_module(f"brickkit.{module_name}")
            original = getattr(module, attribute, None)
            if original is None:
                self.absent.append(f"{module_name}.{attribute}")
                continue
            setattr(module, attribute, self._wrap(original, span_name))

    def _wrap(self, function, name: str):
        spans = self.spans

        @functools.wraps(function)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                spans.append((name, start, time.perf_counter(), threading.get_ident()))

        return traced


def _proc_io() -> tuple[int, int]:
    fields = {}
    with open("/proc/self/io") as handle:
        for line in handle:
            key, value = line.split(":")
            fields[key] = int(value)
    return fields["rchar"], fields["wchar"]


def _peak_rss_kb() -> int:
    """VmHWM of this process's own address space.

    ru_maxrss is not used: Linux carries the parent's peak across the
    vfork and exec that start this process, so it can report the parent.
    """
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _timed(call, expected_errors: tuple[type[BaseException], ...]):
    """Run call once; returns (value, figures). Only expected_errors are caught."""
    rchar0, wchar0 = _proc_io()
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    value, error = None, None
    try:
        value = call()
    except expected_errors as exc:
        error = type(exc).__name__
    end = time.perf_counter()
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    rchar1, wchar1 = _proc_io()
    return value, {
        "start": start,
        "end": end,
        "wall_s": end - start,
        "user_s": usage1.ru_utime - usage0.ru_utime,
        "sys_s": usage1.ru_stime - usage0.ru_stime,
        "rchar": rchar1 - rchar0,
        "wchar": wchar1 - wchar0,
        "peak_rss_kb": _peak_rss_kb(),
        "error": error,
    }


def _brick(request: dict) -> dict:
    import brickkit

    op = request["op"]
    if op == "pack":
        call = functools.partial(
            brickkit.pack, Path(request["source"]), Path(request["brick"]),
            codec_chain=tuple(request["chain"]), passphrase=request["passphrase"],
        )
    elif op in ("verify", "verify_deep"):
        call = functools.partial(
            brickkit.verify, Path(request["brick"]), deep=op == "verify_deep",
            passphrase=request["passphrase"],
        )
    else:  # unpack, unpack_wrong
        call = functools.partial(
            brickkit.unpack, Path(request["brick"]), Path(request["dest"]),
            passphrase=request["passphrase"],
        )
    value, figures = _timed(call, (brickkit.IntegrityError,) if op == "unpack_wrong" else ())
    if op == "pack":
        figures["entries"] = [
            [e.path, e.plain_size, e.plain_sha256, e.payload_size]
            for e in value.manifest.entries
        ]
        figures["plain_bytes"] = value.plain_bytes
    elif op in ("verify", "verify_deep"):
        figures.update(
            ok=value.ok, entry_count=value.entry_count, bytes_checked=value.bytes_checked,
            findings=[str(finding) for finding in value.findings[:5]],
        )
    elif value is not None:
        figures.update(file_count=value.file_count, bytes_written=value.bytes_written)
    return figures


def _io(request: dict) -> dict:
    from brickkit import io_bench

    spec = io_bench.BenchSpec(
        pattern=request["pattern"],
        op=request["io_op"],
        block_bytes=request["block_bytes"],
        targets=(Path(request["target"]),),
        target_bytes=request["target_bytes"],
        queue_depth=request["depth"],
        pass_count=request["passes"],
        rng_seed=request["rng_seed"],
        cache_bypass=False,
        verify_pattern=request["io_op"] == io_bench.OP_READ,
    )
    report, figures = _timed(functools.partial(io_bench.run_io_bench, spec), ())
    figures.update(
        io_count=report.io_count,
        bytes=report.bytes_transferred,
        elapsed_s=report.elapsed_seconds,
        mbps=report.mbps,
        p50_us=report.latency.p50_us,
        p99_us=report.latency.p99_us,
        cache_bypass=report.cache_bypass,
    )
    return figures


def _net(request: dict) -> dict:
    """A loopback pair in this process: serve in a thread, send from this one.

    CPU is read with thread_time inside each end's own thread, because the
    report's cpu_percent counts the whole process, both ends together.
    """
    from brickkit import net_bench

    ports: queue.Queue = queue.Queue()
    box: dict = {}

    def receive() -> None:
        cpu = time.thread_time()
        try:
            box["report"] = net_bench.serve(
                net_bench.NetSpec(net_bench.ROLE_RECEIVE, "127.0.0.1", 0, request["record_bytes"]),
                validate=True, on_listen=ports.put, accept_timeout=60,
            )
        finally:
            box["cpu_s"] = time.thread_time() - cpu
            ports.put(None)

    receiver = threading.Thread(target=receive, daemon=True)
    receiver.start()
    port = ports.get(timeout=60)
    if port is None:
        raise RuntimeError("receiver failed before listening")
    cpu = time.thread_time()
    sent = net_bench.send(net_bench.NetSpec(
        net_bench.ROLE_SEND, "127.0.0.1", port, request["record_bytes"], request["duration_ms"]
    ))
    send_cpu = time.thread_time() - cpu
    receiver.join(timeout=60)
    if receiver.is_alive() or "report" not in box:
        raise RuntimeError("receiver did not finish")
    received = box["report"]
    return {
        "error": None,
        "sent_bytes": sent.bytes_transferred,
        "received_bytes": received.bytes_transferred,
        "send_mbps": sent.mbps_bytes,
        "recv_mbps": received.mbps_bytes,
        "bits_equal_8x_bytes": sent.mbps_bits == 8 * sent.mbps_bytes
        and received.mbps_bits == 8 * received.mbps_bytes,
        "send_cpu_s": send_cpu,
        "recv_cpu_s": box["cpu_s"],
    }


def main() -> None:
    request = json.loads(sys.argv[1])
    tracer = Tracer() if request["trace"] else None
    if tracer is not None:
        tracer.install()
    kind = request["kind"]
    figures = _brick(request) if kind == "brick" else _io(request) if kind == "io" else _net(request)
    if tracer is not None and kind != "net":  # no traced function runs in the net engine
        figures["spans"] = tracer.spans
        figures["absent"] = tracer.absent
    print(json.dumps(figures))


if __name__ == "__main__":
    main()
