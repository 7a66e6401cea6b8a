"""Command-line front end.

Exit codes are part of the interface and stable:

    0  success
    1  verification or integrity failure
    2  usage or configuration error
    3  IO error
    4  network protocol error

Passphrases are only ever read from an environment variable named with
--passphrase-env, never from an argument, so they stay out of shell
history and process listings.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import EXIT_INTEGRITY, EXIT_IO, EXIT_OK, BrickKitError, ConfigError

# Each command imports the modules it calls, so that one tool's command does
# not load the other tools. The brick format itself loads `cryptography` only
# when a chain first encrypts or decrypts.

_SEQ_DEFAULTS = {"block": 64 * 1024, "depth": 2}   # classic sequential config
_RAND_DEFAULTS = {"block": 8 * 1024, "depth": 1}   # classic random config

# Values are io_bench.PATTERN_SEQUENTIAL and io_bench.PATTERN_RANDOM, written
# out so that building the parser does not load the disk bench.
_PATTERN_ALIASES = {
    "seq": "sequential",
    "sequential": "sequential",
    "rand": "random",
    "random": "random",
}


def _passphrase_from_env(variable: str | None) -> str | None:
    if variable is None:
        return None
    value = os.environ.get(variable)
    if value is None:
        raise ConfigError(f"environment variable {variable!r} is not set")
    return value


def _load_catalogs(args: argparse.Namespace):
    from .catalog import DEFAULT_LINKS, DEFAULT_MEDIA, load_links, load_media

    links = load_links(args.links) if args.links else list(DEFAULT_LINKS)
    media = load_media(args.media) if args.media else list(DEFAULT_MEDIA)
    return links, media


def _append_csv(path: str, header: str, row: str) -> None:
    """Append ``row`` to the CSV at ``path``, writing ``header`` first if it is empty.

    Writers may share one file across threads and processes (both ends of a
    loopback ``bench-net`` finish together), so the emptiness check and the
    append happen under an exclusive lock, and the line(s) go out in one write.
    """
    import fcntl

    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)  # released when fd is closed
        text = row + "\n"
        if os.fstat(fd).st_size == 0:
            text = header + "\n" + text
        view = memoryview(text.encode("utf-8"))
        while view:  # a short write is not an error
            view = view[os.write(fd, view) :]
    finally:
        os.close(fd)


def _cmd_plan(args: argparse.Namespace) -> int:
    from .cost_model import apply_compression_factor, recommend
    from .tables import plan_table
    from .units import parse_data_size

    size = parse_data_size(args.size)
    links, media = _load_catalogs(args)
    if args.compression is not None:
        media = [apply_compression_factor(spec, args.compression) for spec in media]
    options = recommend(size, links, media, objective=args.objective)
    print(plan_table(options, size, args.objective))
    return EXIT_OK


def _cmd_tables(args: argparse.Namespace) -> int:
    from .tables import link_table, media_anomaly_lines, media_table, notes_lines
    from .units import parse_data_size

    campaign = parse_data_size(args.campaign)
    links, media = _load_catalogs(args)
    print(link_table(links))
    print()
    print(media_table(media, campaign))
    for line in media_anomaly_lines(media, campaign):
        print(line)
    if args.notes:
        for line in notes_lines():
            print(line)
    return EXIT_OK


def _cmd_pack(args: argparse.Namespace) -> int:
    from .brick import pack
    from .manifest import DEFAULT_KDF_ITERATIONS

    chain = tuple(part.strip() for part in args.codec.split(","))
    result = pack(
        source_dir=Path(args.source),
        brick_dir=Path(args.brick),
        dataset_name=args.dataset,
        codec_chain=chain,
        passphrase=_passphrase_from_env(args.passphrase_env),
        kdf_iterations=args.iterations if args.iterations is not None else DEFAULT_KDF_ITERATIONS,
        workers=args.workers,
    )
    print(
        f"packed {len(result.manifest.entries)} files"
        f" ({result.plain_bytes:,} bytes) into {result.brick_dir}"
        f" ({result.payload_bytes:,} payload bytes, codec {args.codec})"
    )
    for directory in result.empty_dirs:
        print(f"skipped empty directory {directory}: a brick holds files only", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .brick import verify

    report = verify(
        Path(args.brick),
        deep=args.deep,
        passphrase=_passphrase_from_env(args.passphrase_env),
        workers=args.workers,
    )
    for finding in report.findings:
        print(finding)
    depth = "deep" if report.deep else "shallow"
    status = "OK" if report.ok else f"{len(report.findings)} problem(s)"
    print(
        f"{depth} verify of {report.entry_count} entries"
        f" ({report.bytes_checked:,} bytes): {status}"
    )
    return EXIT_OK if report.ok else EXIT_INTEGRITY


def _cmd_unpack(args: argparse.Namespace) -> int:
    from .brick import unpack

    result = unpack(
        Path(args.brick),
        Path(args.dest),
        passphrase=_passphrase_from_env(args.passphrase_env),
        workers=args.workers,
    )
    print(
        f"restored {result.file_count} files"
        f" ({result.bytes_written:,} bytes) to {result.dest_dir}"
    )
    return EXIT_OK


def _cmd_bench_io(args: argparse.Namespace) -> int:
    from . import io_bench
    from .units import parse_bench_size

    pattern = _PATTERN_ALIASES[args.pattern]
    defaults = _SEQ_DEFAULTS if pattern == io_bench.PATTERN_SEQUENTIAL else _RAND_DEFAULTS
    # A striped run issues one IO per stripe chunk, so its unit is also its block.
    block_text = args.block or args.stripe_unit
    block = parse_bench_size(block_text) if block_text else defaults["block"]
    depth = args.depth if args.depth is not None else defaults["depth"]
    if args.passes is not None and args.duration is not None:
        raise ConfigError("--passes and --duration are mutually exclusive")
    passes = args.passes
    if passes is None and args.duration is None:
        passes = 1

    spec = io_bench.BenchSpec(
        pattern=pattern,
        op=args.op,
        block_bytes=block,
        targets=tuple(Path(t) for t in args.target),
        target_bytes=parse_bench_size(args.size),
        queue_depth=depth,
        pass_count=passes,
        duration_seconds=args.duration,
        rng_seed=args.seed,
        cache_bypass=not args.no_direct,
        verify_pattern=args.verify,
    )
    if args.stripe_unit is not None:
        stripe = io_bench.StripeSet(spec.targets, parse_bench_size(args.stripe_unit))
        report = io_bench.run_stripe_bench(spec, stripe)
    else:
        report = io_bench.run_io_bench(spec)
    for line in report.text_lines():
        print(line)
    if args.csv:
        _append_csv(args.csv, io_bench.IO_CSV_HEADER, report.csv_row())
    return EXIT_OK


def _cmd_bench_net(args: argparse.Namespace) -> int:
    from . import net_bench
    from .units import parse_bench_size

    spec = net_bench.NetSpec(
        role=args.role,
        host=args.host,
        port=args.port,
        record_bytes=parse_bench_size(args.record),
        duration_ms=args.duration_ms,
    )
    if args.role == net_bench.ROLE_RECEIVE:
        report = net_bench.serve(
            spec,
            validate=args.validate,
            on_listen=lambda port: print(f"listening on port {port}", file=sys.stderr),
            accept_timeout=args.accept_timeout,
        )
    else:
        report = net_bench.send(spec)
    for line in report.text_lines():
        print(line)
    if args.csv:
        _append_csv(args.csv, net_bench.NET_CSV_HEADER, report.csv_row())
    return EXIT_OK


def _add_catalog_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--links", metavar="CSV", help="link catalog (name,mbps,rent)")
    parser.add_argument("--media", metavar="CSV", help="media catalog CSV")


def _add_passphrase_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--passphrase-env",
        metavar="VAR",
        help="environment variable holding the passphrase (never pass secrets as arguments)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        help="threads for files of 256 KiB and up, smaller files run on the calling thread;"
        " pack also deflates the blocks of files over 256 KiB on a pool of this many threads;"
        " for verify and unpack it is the whole thread budget: the calling thread takes one"
        " once the smaller files add up to 256 KiB, the files of 256 KiB and up share the"
        " rest evenly, and one whose share is two or more gets a helper thread, which hashes"
        " it (under deflate in verify --deep and unpack, hashes its plain bytes and, in"
        " unpack, writes them); 1 keeps everything on one thread; at most 64, where pack"
        " may hold about (workers + 1)^2 blocks of 256 KiB (1.2 GiB) in memory"
        " (default: one per core this process may run on, up to 8)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brick",
        description="Move terabytes: plan network-vs-shipping transfers,"
        " pack verifiable bricks, and benchmark the disks and links involved.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    plan = sub.add_parser("plan", help="rank transfer strategies for a dataset size")
    plan.add_argument("size", help="dataset size, decimal units (e.g. 10TB, 500GB)")
    _add_catalog_flags(plan)
    plan.add_argument(
        "--objective", choices=("fastest", "cheapest"), default="fastest",
        help="ranking objective (default: fastest)",
    )
    plan.add_argument(
        "--compression", type=float, metavar="RATIO",
        help="treat media pipelines as carrying RATIO:1 compressible data",
    )
    plan.set_defaults(func=_cmd_plan)

    tables = sub.add_parser("tables", help="print the link and media economics tables")
    _add_catalog_flags(tables)
    tables.add_argument(
        "--campaign", default="10TB",
        help="campaign size for media cost columns (default: 10TB)",
    )
    tables.add_argument(
        "--notes", action="store_true",
        help="append notes on known divergences from the published figures",
    )
    tables.set_defaults(func=_cmd_tables)

    pack = sub.add_parser("pack", help="pack a directory tree into a brick")
    pack.add_argument("source", help="directory to pack")
    pack.add_argument("brick", help="brick directory to create")
    pack.add_argument(
        "--codec", default="none",
        help="codec chain: none, deflate, aes-256-gcm, or deflate,aes-256-gcm",
    )
    pack.add_argument("--dataset", help="dataset label (default: source directory name)")
    pack.add_argument(
        "--iterations", type=int, default=None,
        help="PBKDF2 iteration count (default: 210000)",
    )
    _add_passphrase_flags(pack)
    pack.set_defaults(func=_cmd_pack)

    verify = sub.add_parser("verify", help="check a brick against its manifest")
    verify.add_argument("brick", help="brick directory")
    verify.add_argument(
        "--deep", action="store_true",
        help="also decode every payload and check the original digests",
    )
    _add_passphrase_flags(verify)
    verify.set_defaults(func=_cmd_verify)

    unpack = sub.add_parser("unpack", help="restore the original tree from a brick")
    unpack.add_argument("brick", help="brick directory")
    unpack.add_argument("dest", help="destination directory (must be empty or absent)")
    _add_passphrase_flags(unpack)
    unpack.set_defaults(func=_cmd_unpack)

    bench_io = sub.add_parser("bench-io", help="disk benchmark")
    bench_io.add_argument(
        "--pattern", choices=sorted(_PATTERN_ALIASES), default="seq",
        help="access pattern (default: seq)",
    )
    bench_io.add_argument("--op", choices=("read", "write"), default="read")
    bench_io.add_argument(
        "--block", metavar="SIZE",
        help="IO size, binary units (default: 64K sequential, 8K random)",
    )
    bench_io.add_argument(
        "--depth", type=int,
        help="queue depth to sustain (default: 2 sequential, 1 random)",
    )
    bench_io.add_argument(
        "--target", action="append", required=True, metavar="PATH",
        help="target file; repeat for multiple targets",
    )
    bench_io.add_argument(
        "--size", required=True, metavar="SIZE",
        help="working-set bytes per target (logical stream size when striped)",
    )
    bench_io.add_argument("--passes", type=int, help="stop after N full passes (default: 1)")
    bench_io.add_argument(
        "--duration", type=float, metavar="SECONDS",
        help="stop after elapsed time instead of a pass count",
    )
    bench_io.add_argument("--seed", type=int, default=0, help="offset/pattern seed")
    bench_io.add_argument(
        "--stripe-unit", metavar="SIZE",
        help="stripe the logical stream over the targets RAID0-style;"
        " also the IO size, which --block may repeat but not change",
    )
    bench_io.add_argument(
        "--no-direct", action="store_true",
        help="skip the cache-bypassing open; measure through the page cache",
    )
    bench_io.add_argument(
        "--verify", action="store_true",
        help="on reads, check blocks against the seeded write pattern;"
        " use the write's --seed (any --block and --pattern)",
    )
    bench_io.add_argument("--csv", metavar="PATH", help="append the report as a CSV row")
    bench_io.set_defaults(func=_cmd_bench_io)

    bench_net = sub.add_parser("bench-net", help="TCP stream benchmark")
    bench_net.add_argument("role", choices=("send", "receive"))  # net_bench.ROLE_*
    bench_net.add_argument("--host", default="127.0.0.1")
    bench_net.add_argument("--port", type=int, required=True)
    bench_net.add_argument(
        "--record", default="64K", metavar="SIZE",
        help="record size, binary units (default: 64K)",
    )
    bench_net.add_argument(
        "--duration-ms", type=int, default=10_000,
        help="send duration in milliseconds (default: 10000)",
    )
    bench_net.add_argument(
        "--validate", action="store_true",
        help="receiver checks the deterministic payload pattern byte-for-byte",
    )
    bench_net.add_argument(
        "--accept-timeout", type=float, metavar="SECONDS",
        help="receiver gives up if no sender arrives in time",
    )
    bench_net.add_argument("--csv", metavar="PATH", help="append the report as a CSV row")
    bench_net.set_defaults(func=_cmd_bench_net)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrickKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())
