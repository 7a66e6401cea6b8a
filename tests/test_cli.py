from __future__ import annotations

import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from brickkit import brick as brick_mod
from brickkit.catalog import LINK_COLUMNS, MEDIA_COLUMNS
from brickkit.cli import _append_csv, main
from brickkit.net_bench import HANDSHAKE
from conftest import FAST_KDF_ITERATIONS, PLANTED, plant_after_the_check

GOLDEN = Path(__file__).parent / "golden"

SUBCOMMANDS = ["plan", "tables", "pack", "verify", "unpack", "bench-io", "bench-net"]


def make_tree(tmp_path: Path) -> Path:
    source = tmp_path / "data"
    (source / "sub").mkdir(parents=True)
    (source / "a.txt").write_bytes(b"alpha")
    (source / "sub" / "b.bin").write_bytes(bytes(range(100)) * 10)
    return source


# ---------- parser plumbing ----------

def test_top_level_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "plan" in capsys.readouterr().out


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_every_subcommand_has_help(command, capsys):
    assert main([command, "--help"]) == 0
    capsys.readouterr()


def test_no_command_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_command_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_module_entry_point_runs():
    done = subprocess.run(
        [sys.executable, "-m", "brickkit", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0
    assert "brick" in done.stdout


# ---------- plan ----------

def test_plan_fastest_ranks_links_first(capsys):
    assert main(["plan", "10TB"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert "fastest" in lines[0]
    first_row = next(line for line in lines if line.lstrip().startswith("1"))
    assert "OC192" in first_row


def test_plan_cheapest_ranks_home_dsl_first(capsys):
    assert main(["plan", "1TB", "--objective", "cheapest"]) == 0
    out = capsys.readouterr().out
    first_row = next(
        line for line in out.splitlines() if line.lstrip().startswith("1")
    )
    assert "DSL" in first_row


def test_plan_compression_runs(capsys):
    assert main(["plan", "10TB", "--compression", "2.5"]) == 0
    capsys.readouterr()


def test_plan_rejects_zero_size(capsys):
    assert main(["plan", "0TB"]) == 2
    assert "error:" in capsys.readouterr().err


def test_plan_rejects_binary_units_with_hint(capsys):
    assert main(["plan", "10TiB"]) == 2
    assert "TiB" in capsys.readouterr().err


@pytest.mark.parametrize(
    "row",
    [
        "Tape,nan,15000,2,6,6,24,0,10",
        "Tape,1000,15000,2,6,6,inf,0,10",
        "Tape,1000,15000,nan,6,6,24,0,10",
        "Tape,1000,15000,1.9,6,6,24,0,10",
        "Tape,1000,15000,2,6,6,24,0,2.7",
    ],
    ids=["nan-cost", "inf-ship-hours", "nan-sites", "fractional-sites", "fractional-trips"],
)
@pytest.mark.parametrize("command", [["tables"], ["plan", "10TB"]], ids=["tables", "plan"])
def test_bad_media_catalog_rows_are_config_errors(tmp_path, capsys, command, row):
    catalog = tmp_path / "media.csv"
    catalog.write_text(f"{','.join(MEDIA_COLUMNS)}\n{row}\n")
    assert main([*command, "--media", str(catalog)]) == 2
    assert one_line_error(capsys.readouterr().err)


@pytest.mark.parametrize("command", [["tables"], ["plan", "10TB"]], ids=["tables", "plan"])
def test_catalogs_with_a_byte_order_mark_read_as_without(tmp_path, capsys, command):
    links = [",".join(LINK_COLUMNS), "T1,1.544,1200", "OC3,155,50000"]
    media = [",".join(MEDIA_COLUMNS), "Tape,1000,15000,2,6,6,24,0,10", "DVD,500,0,1,8,8,24,20,1"]
    outputs = []
    for mark in ("", "\ufeff"):  # spreadsheets save "CSV UTF-8" with a leading U+FEFF
        folder = tmp_path / ("bom" if mark else "plain")
        folder.mkdir()
        (folder / "links.csv").write_text(mark + "\n".join(links) + "\n", encoding="utf-8")
        (folder / "media.csv").write_text(mark + "\n".join(media) + "\n", encoding="utf-8")
        flags = ["--links", str(folder / "links.csv"), "--media", str(folder / "media.csv")]
        assert main([*command, *flags]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and "Tape" in outputs[0]


def test_plan_missing_catalog_is_io_error(capsys):
    assert main(["plan", "10TB", "--links", "no/such/file.csv"]) == 3
    assert "io error" in capsys.readouterr().err


# ---------- tables ----------

def test_tables_match_golden_output(capsys):
    assert main(["tables"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "tables.txt").read_text()


def test_tables_notes_match_golden_output(capsys):
    assert main(["tables", "--notes"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "tables_notes.txt").read_text()


# ---------- pack / verify / unpack ----------

def test_plain_round_trip_through_cli(tmp_path, capsys):
    source = make_tree(tmp_path)
    brick = tmp_path / "brick"
    dest = tmp_path / "out"

    assert main(["pack", str(source), str(brick), "--codec", "deflate"]) == 0
    assert "packed 2 files" in capsys.readouterr().out

    assert main(["verify", str(brick), "--deep"]) == 0
    assert "deep verify of 2 entries" in capsys.readouterr().out

    assert main(["unpack", str(brick), str(dest)]) == 0
    assert "restored 2 files" in capsys.readouterr().out
    assert (dest / "a.txt").read_bytes() == b"alpha"
    assert (dest / "sub" / "b.bin").read_bytes() == bytes(range(100)) * 10


def test_encrypted_round_trip_reads_env_passphrase(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BRICK_TEST_PASS", "sesame")
    source = make_tree(tmp_path)
    brick = tmp_path / "brick"
    args = ["--passphrase-env", "BRICK_TEST_PASS"]

    assert main([
        "pack", str(source), str(brick), "--codec", "deflate,aes-256-gcm",
        "--iterations", str(FAST_KDF_ITERATIONS), *args,
    ]) == 0
    assert main(["verify", str(brick), "--deep", *args]) == 0
    assert main(["unpack", str(brick), str(tmp_path / "out"), *args]) == 0
    capsys.readouterr()

    monkeypatch.setenv("BRICK_TEST_PASS", "wrong")
    assert main(["verify", str(brick), "--deep", *args]) == 1
    out = capsys.readouterr().out
    assert "decode-failure" in out
    assert "2 problem(s)" in out


def test_pack_names_skipped_empty_directories_on_stderr(tmp_path, capsys):
    source = make_tree(tmp_path)
    (source / "empty").mkdir()
    assert main(["pack", str(source), str(tmp_path / "brick")]) == 0
    captured = capsys.readouterr()
    assert "packed 2 files" in captured.out
    assert captured.err == "skipped empty directory empty: a brick holds files only\n"


def test_pack_encrypting_without_passphrase_is_config_error(tmp_path, capsys):
    source = make_tree(tmp_path)
    code = main(["pack", str(source), str(tmp_path / "b"), "--codec", "aes-256-gcm"])
    assert code == 2
    assert "passphrase" in capsys.readouterr().err


def test_unset_passphrase_variable_is_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("BRICK_NO_SUCH_VAR", raising=False)
    source = make_tree(tmp_path)
    code = main([
        "pack", str(source), str(tmp_path / "b"),
        "--codec", "aes-256-gcm", "--passphrase-env", "BRICK_NO_SUCH_VAR",
    ])
    assert code == 2
    assert "BRICK_NO_SUCH_VAR" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--workers", "-1"], ["--workers", "0"], ["--workers", "65"],
        ["--codec", "aes-256-gcm", "--iterations", "0"],
    ],
    ids=["workers-1", "workers0", "workers65", "iterations0"],
)
def test_pack_out_of_range_numbers_are_config_errors(tmp_path, capsys, monkeypatch, flags):
    monkeypatch.setenv("BRICK_TEST_PASS", "pw")
    argv = ["pack", str(make_tree(tmp_path)), str(tmp_path / "b"), *flags]
    if "aes-256-gcm" in flags:
        argv += ["--passphrase-env", "BRICK_TEST_PASS"]

    def no_thread(self):
        raise AssertionError("a refused value started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert one_line_error(err) and flags[-2].lstrip("-") in err
    assert not (tmp_path / "b").exists()


def test_verify_reports_bit_flip_with_path(tmp_path, capsys):
    source = make_tree(tmp_path)
    brick = tmp_path / "brick"
    assert main(["pack", str(source), str(brick)]) == 0
    capsys.readouterr()

    victim = brick / "sub" / "b.bin"
    body = bytearray(victim.read_bytes())
    body[10] ^= 0x04
    victim.write_bytes(bytes(body))

    assert main(["verify", str(brick)]) == 1
    out = capsys.readouterr().out
    assert "payload-digest-mismatch: sub/b.bin" in out
    assert "1 problem(s)" in out


def test_verify_corrupt_manifest_is_integrity_failure(tmp_path, capsys):
    source = make_tree(tmp_path)
    brick = tmp_path / "brick"
    assert main(["pack", str(source), str(brick)]) == 0
    manifest = brick / "BRICK-MANIFEST"
    manifest.write_bytes(manifest.read_bytes()[:25])
    assert main(["verify", str(brick)]) == 1
    capsys.readouterr()


def test_unpack_into_occupied_directory_is_config_error(tmp_path, capsys):
    source = make_tree(tmp_path)
    brick = tmp_path / "brick"
    assert main(["pack", str(source), str(brick)]) == 0
    occupied = tmp_path / "occupied"
    occupied.mkdir()
    (occupied / "junk").write_text("x")
    assert main(["unpack", str(brick), str(occupied)]) == 2
    assert "not empty" in capsys.readouterr().err


def test_pack_missing_source_is_config_error(tmp_path, capsys):
    assert main(["pack", str(tmp_path / "ghost"), str(tmp_path / "b")]) == 2
    capsys.readouterr()


def one_line_error(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "source_name, flags",
    [("data", ["--dataset", "x\ty"]), ("new\nline", []), ("bad\udcffutf8", [])],
    ids=["tab-in-dataset", "newline-in-source-name", "undecodable-source-name"],
)
def test_pack_unstorable_dataset_label_is_config_error(tmp_path, capsys, source_name, flags):
    source = tmp_path / source_name
    source.mkdir()
    (source / "a.txt").write_bytes(b"alpha")
    destination = tmp_path / "brick"
    assert main(["pack", str(source), str(destination), *flags]) == 2
    err = capsys.readouterr().err
    assert one_line_error(err) and "dataset name" in err
    assert not destination.exists()


def test_pack_refuses_a_name_that_is_not_utf8(tmp_path, capsys):
    source = make_tree(tmp_path)
    (source / "sub" / "a\udcffb").write_bytes(b"x")  # the bytes a, 0xff, b on disk
    destination = tmp_path / "brick"
    assert main(["pack", str(source), str(destination)]) == 2
    err = capsys.readouterr().err
    assert one_line_error(err) and "sub/a\\xffb" in err and "UTF-8" in err
    assert not destination.exists()


def test_pack_refuses_two_spellings_of_one_name(tmp_path, capsys):
    source = tmp_path / "src"
    source.mkdir()
    composed, decomposed = "caf\u00e9", "cafe\u0301"
    (source / composed).write_bytes(b"composed")
    (source / decomposed).write_bytes(b"decomposed")
    destination = tmp_path / "brick"
    assert main(["pack", str(source), str(destination)]) == 2
    err = capsys.readouterr().err
    assert one_line_error(err) and repr(composed) in err and repr(decomposed) in err
    assert not destination.exists()


@pytest.mark.parametrize("swap", ["fifo", "symlink"])
def test_pack_refuses_a_file_swapped_after_the_walk(tmp_path, capsys, monkeypatch, swap):
    source = make_tree(tmp_path)
    victim = source / "sub" / "b.bin"
    outside = tmp_path / "outside.txt"
    outside.write_bytes(b"not part of the tree")
    collect = brick_mod._collect_source

    def collect_then_swap(source_dir):
        found = collect(source_dir)
        victim.unlink()
        if swap == "fifo":
            os.mkfifo(victim)
        else:
            victim.symlink_to(outside)
        return found

    monkeypatch.setattr(brick_mod, "_collect_source", collect_then_swap)
    destination = tmp_path / "brick"
    codes = []
    runner = threading.Thread(
        target=lambda: codes.append(main(["pack", str(source), str(destination)])), daemon=True
    )
    runner.start()
    runner.join(timeout=10)
    if runner.is_alive():
        os.close(os.open(victim, os.O_WRONLY | os.O_NONBLOCK))  # give the blocked reader EOF
        runner.join(timeout=10)
        pytest.fail("pack blocked on a FIFO that took a source file's place")
    assert codes == [2]
    err = capsys.readouterr().err
    assert one_line_error(err) and "sub/b.bin: only regular files can be packed" in err
    assert not destination.exists()


def test_pack_refuses_a_directory_swapped_for_a_link_after_the_walk(tmp_path, capsys, monkeypatch):
    source = make_tree(tmp_path)
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "b.bin").write_bytes(b"OUTSIDE")
    collect = brick_mod._collect_source

    def collect_then_swap(source_dir):
        found = collect(source_dir)
        (source / "sub").rename(tmp_path / "moved")
        (source / "sub").symlink_to(outside, target_is_directory=True)
        return found

    monkeypatch.setattr(brick_mod, "_collect_source", collect_then_swap)
    destination = tmp_path / "brick"
    assert main(["pack", str(source), str(destination)]) == 2
    err = capsys.readouterr().err
    assert one_line_error(err) and "sub/b.bin: replaced after the source was walked" in err
    assert not destination.exists()


@pytest.mark.parametrize("case", list(PLANTED))
def test_a_planted_name_is_one_io_error_line(tmp_path, capsys, monkeypatch, case):
    planted = plant_after_the_check(tmp_path, monkeypatch, case)
    assert main([planted.command, str(planted.given), str(planted.made)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("io error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert "File exists" in err and planted.name in err


# ---------- bench-io ----------

def test_bench_io_write_then_verified_read(tmp_path, capsys):
    target = tmp_path / "disk.bin"
    base = ["bench-io", "--target", str(target), "--size", "256K", "--no-direct"]
    assert main([*base, "--op", "write"]) == 0
    out = capsys.readouterr().out
    assert "sequential write, block 65536, depth 2" in out

    assert main([*base, "--op", "read", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "sequential read" in out


def test_bench_io_short_read_is_one_io_error_line(tmp_path, capsys, monkeypatch):
    target = tmp_path / "disk.bin"
    base = ["bench-io", "--target", str(target), "--size", "256K", "--no-direct"]
    assert main([*base, "--op", "write"]) == 0
    capsys.readouterr()
    real_preadv = os.preadv

    def short_at_128k(fd, buffers, offset):
        return real_preadv(fd, [bytearray(100)] if offset == 128 << 10 else buffers, offset)

    monkeypatch.setattr(os, "preadv", short_at_128k)
    assert main([*base, "--op", "read"]) == 3
    assert capsys.readouterr().err == f"io error: short read on {target} at {128 << 10}\n"


def test_bench_io_random_defaults(tmp_path, capsys):
    target = tmp_path / "disk.bin"
    base = ["bench-io", "--target", str(target), "--size", "64K", "--no-direct"]
    assert main([*base, "--op", "write"]) == 0
    capsys.readouterr()
    assert main([*base, "--pattern", "rand", "--op", "read"]) == 0
    assert "random read, block 8192, depth 1" in capsys.readouterr().out


def test_bench_io_accepts_bare_byte_counts(tmp_path, capsys):
    target = tmp_path / "disk.bin"
    assert main([
        "bench-io", "--op", "write", "--target", str(target),
        "--size", "131072", "--block", "65536", "--no-direct",
    ]) == 0
    assert "block 65536" in capsys.readouterr().out


def test_bench_io_bad_block_is_config_error(tmp_path, capsys):
    code = main([
        "bench-io", "--op", "write", "--target", str(tmp_path / "d"),
        "--size", "1M", "--block", "3K", "--no-direct",
    ])
    assert code == 2
    assert "power of two" in capsys.readouterr().err


def test_bench_io_passes_and_duration_conflict(tmp_path, capsys):
    code = main([
        "bench-io", "--op", "write", "--target", str(tmp_path / "d"),
        "--size", "1M", "--passes", "2", "--duration", "0.1", "--no-direct",
    ])
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_bench_io_read_before_write_is_config_error(tmp_path, capsys):
    code = main([
        "bench-io", "--op", "read",
        "--target", str(tmp_path / "never_written.bin"),
        "--size", "1M", "--no-direct",
    ])
    assert code == 3  # stat on a missing target
    capsys.readouterr()


def test_bench_io_seed_past_64_bits_is_config_error(tmp_path, capsys):
    target = tmp_path / "F"
    base = ["bench-io", "--op", "write", "--target", str(target), "--size", "64K", "--no-direct"]
    assert main([*base, "--seed", str(2**64)]) == 2
    err = capsys.readouterr().err
    assert one_line_error(err) and "rng_seed" in err
    assert not target.exists()
    assert main([*base, "--seed", str(2**64 - 1)]) == 0
    capsys.readouterr()


def test_bench_io_stripe_through_cli(tmp_path, capsys):
    targets = [str(tmp_path / f"m{i}.bin") for i in range(3)]
    target_args = []
    for target in targets:
        target_args += ["--target", target]
    assert main([
        "bench-io", "--op", "write", *target_args,
        "--size", "768K", "--block", "64K", "--stripe-unit", "64K", "--no-direct",
    ]) == 0
    assert "3 target(s)" in capsys.readouterr().out
    sizes = {Path(t).stat().st_size for t in targets}
    assert sizes == {4 * 64 * 1024}  # ceil(12/3) = 4 chunks per member


def test_bench_io_stripe_unit_sets_the_block_of_a_random_run(tmp_path, capsys):
    targets = ["--target", str(tmp_path / "m0.bin"), "--target", str(tmp_path / "m1.bin")]
    base = ["bench-io", "--pattern", "rand", *targets, "--size", "256K", "--no-direct"]
    assert main([*base, "--op", "write", "--stripe-unit", "16K"]) == 0
    assert "random write, block 16384, depth 1" in capsys.readouterr().out
    assert main([*base, "--op", "read", "--verify", "--stripe-unit", "16K"]) == 0
    assert "random read, block 16384" in capsys.readouterr().out
    # An explicit --block must still equal the unit.
    assert main([*base, "--op", "write", "--stripe-unit", "16K", "--block", "8K"]) == 2
    err = capsys.readouterr().err
    assert one_line_error(err) and "must equal stripe_unit_bytes 16384" in err


@pytest.mark.parametrize(
    "layout", [[], ["--block", "64K", "--stripe-unit", "64K"]], ids=["plain", "striped"]
)
@pytest.mark.parametrize("alias", ["same-path", "symlink"])
def test_bench_io_refuses_a_file_named_twice(tmp_path, capsys, alias, layout):
    first = tmp_path / "a"
    second = first if alias == "same-path" else tmp_path / "link"
    if alias == "symlink":
        second.symlink_to(first)
    base = ["bench-io", "--size", "1M", "--no-direct", *layout]
    twice = ["--target", str(first), "--target", str(second)]
    assert main([*base, "--op", "write", *twice]) == 2
    err = capsys.readouterr().err
    assert one_line_error(err) and f"targets {first} and {second} are the same file" in err
    assert not first.exists()  # the run created it, so the refusal removed it
    assert main([*base, "--op", "write", "--target", str(first)]) == 0
    healthy = first.read_bytes()
    capsys.readouterr()
    for op in (["--op", "read", "--verify"], ["--op", "write"]):
        assert main([*base, *op, *twice]) == 2
        assert one_line_error(capsys.readouterr().err)
    assert first.read_bytes() == healthy
    assert main([*base, "--op", "read", "--verify", "--target", str(first)]) == 0
    capsys.readouterr()


def test_bench_io_csv_header_written_once(tmp_path, capsys):
    target = tmp_path / "disk.bin"
    csv_path = tmp_path / "runs.csv"
    base = [
        "bench-io", "--op", "write", "--target", str(target),
        "--size", "128K", "--no-direct", "--csv", str(csv_path),
    ]
    assert main(base) == 0
    assert main(base) == 0
    capsys.readouterr()
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("pattern,op,")
    assert lines[1] != lines[0] and lines[2] != lines[0]


def test_csv_append_concurrent_writers_share_one_header(tmp_path):
    # Concurrent runs may append to one --csv file (both bench-net ends do);
    # the header must still be written exactly once and every row stay whole.
    writers, trials = 8, 40
    header = "pattern,op,block_bytes"
    rows = [f"row{i}," + "x" * 200 for i in range(writers)]
    errors: list[Exception] = []

    def write(path: str, barrier: threading.Barrier, index: int) -> None:
        try:
            barrier.wait(timeout=10.0)
            _append_csv(path, header, rows[index])
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(trials):
            csv_path = tmp_path / f"runs{trial}.csv"
            barrier = threading.Barrier(writers)
            threads = [
                threading.Thread(target=write, args=(str(csv_path), barrier, i))
                for i in range(writers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            lines = csv_path.read_text().splitlines()
            assert lines[0] == header
            assert lines.count(header) == 1
            assert sorted(lines[1:]) == rows
    finally:
        sys.setswitchinterval(previous)


# ---------- bench-net ----------

def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def run_cli_receiver(port: int, extra: list[str] | None = None):
    outcome: dict[str, int] = {}

    def run():
        outcome["code"] = main([
            "bench-net", "receive", "--port", str(port),
            "--accept-timeout", "10", *(extra or []),
        ])

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


def send_with_retry(args: list[str], attempts: int = 100) -> int:
    # The receiver thread needs a moment to reach accept().
    for _ in range(attempts):
        code = main(args)
        if code != 3:  # 3 = connection refused, receiver not up yet
            return code
        time.sleep(0.02)
    return code


def test_bench_net_loopback_both_sides_succeed(tmp_path, capsys):
    port = free_port()
    csv_path = tmp_path / "net.csv"
    thread, outcome = run_cli_receiver(port, ["--validate", "--csv", str(csv_path)])
    code = send_with_retry([
        "bench-net", "send", "--port", str(port),
        "--record", "4K", "--duration-ms", "30", "--csv", str(csv_path),
    ])
    thread.join(timeout=15.0)
    captured = capsys.readouterr()
    assert code == 0
    assert outcome["code"] == 0
    assert "listening on port" in captured.err
    assert "MBps (=" in captured.out
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "role,record_bytes,elapsed_s,bytes,mbps,cpu_percent"
    assert len(lines) == 3  # one receive row, one send row


def test_bench_net_receiver_rejects_garbage_with_protocol_code(capsys):
    port = free_port()
    thread, outcome = run_cli_receiver(port)
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=1.0) as conn:
                conn.sendall(struct.pack(f">{HANDSHAKE.size}s", b"not a handshake"))
            break
        except OSError:
            time.sleep(0.02)
    thread.join(timeout=15.0)
    capsys.readouterr()
    assert outcome["code"] == 4


@pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf"])
def test_bench_net_receiver_refuses_a_bad_accept_timeout(capsys, timeout):
    argv = ["bench-net", "receive", "--port", str(free_port()), "--accept-timeout", timeout]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert one_line_error(err) and "accept timeout" in err


def test_bench_net_bad_record_size_is_config_error(capsys):
    assert main(["bench-net", "send", "--port", "1", "--record", "0"]) == 2
    capsys.readouterr()
