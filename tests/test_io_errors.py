"""Fail the Nth IO call of pack, verify, verify --deep and unpack, for every N.

After SQLite's I/O-error tests: each run must end with exit 0 or 3 and one
error line, leave no descriptor or thread behind, and leave no name it
created, except the files unpack has already restored, which hold their
source bytes.
"""

from __future__ import annotations

import errno
import os
import threading
from pathlib import Path

import pytest

from brickkit import brick as brick_mod
from brickkit import payload as payload_mod
from brickkit.cli import main
from conftest import FAST_KDF_ITERATIONS, read_tree

SWEPT = ("open", "read", "write", "close", "fstat", "mkdir", "link", "unlink", "rmdir", "scandir")


class FailingOs:
    """The os module, except that the Nth call of a SWEPT function raises OSError(EIO).

    Calls are counted across threads; with fail_at 0 none fails. A failing
    close frees its descriptor first, as Linux does.
    """

    def __init__(self) -> None:
        self.calls = 0
        self.fail_at = 0
        self.failed: str | None = None  # the name of the call that failed
        self._lock = threading.Lock()
        for name in SWEPT:
            setattr(self, name, self._counted(name, getattr(os, name)))

    def __getattr__(self, name: str):
        return getattr(os, name)

    def arm(self, fail_at: int) -> None:
        self.calls, self.fail_at, self.failed = 0, fail_at, None

    def _counted(self, name, real):
        def call(*args, **kwargs):
            with self._lock:
                self.calls += 1
                fail = self.calls == self.fail_at
            if not fail:
                return real(*args, **kwargs)
            self.failed = name
            if name == "close":
                real(*args, **kwargs)
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        return call


@pytest.fixture
def failing_os(monkeypatch) -> FailingOs:
    proxy = FailingOs()
    monkeypatch.setattr(brick_mod, "os", proxy)
    monkeypatch.setattr(payload_mod, "os", proxy)
    return proxy


def make_tree(root: Path) -> dict[str, bytes]:
    """Four files in two directories.

    big.bin is noise, so that under deflate its payload, too, is over
    256 KiB: it goes to a pool thread, and with two workers it is the one
    entry there, so a shallow read hashes it on a helper and a deep read
    writes it on one.
    """
    files = {
        "a.txt": b"alpha\n" * 50,
        "sub/b.bin": bytes(range(100)) * 10,
        "sub/big.bin": os.urandom(300 * 1024),
        "z.txt": b"",
    }
    for relative, body in files.items():
        (root / relative).parent.mkdir(parents=True, exist_ok=True)
        (root / relative).write_bytes(body)
    return files


def descriptors_and_threads() -> tuple[set[str], set[threading.Thread]]:
    return set(os.listdir("/proc/self/fd")), set(threading.enumerate())


# (pack's own flags, flags for every command) of each configuration swept.
CONFIGS = {
    "none-1-worker": ([], ["--workers", "1"]),
    "sealed-2-workers": (
        ["--codec", "deflate,aes-256-gcm", "--iterations", str(FAST_KDF_ITERATIONS)],
        ["--workers", "2", "--passphrase-env", "BRICK_SWEEP_PASS"],
    ),
}


@pytest.mark.parametrize("config", list(CONFIGS))
def test_every_failed_io_call_ends_the_run_cleanly(
    tmp_path, monkeypatch, capsys, failing_os, config
):
    monkeypatch.setenv("BRICK_SWEEP_PASS", "sesame")
    source = tmp_path / "src"
    files = make_tree(source)
    pack_only, common = CONFIGS[config]
    pack_flags = [*pack_only, *common]
    brick = tmp_path / "brick"
    assert main(["pack", str(source), str(brick), *pack_flags]) == 0
    commands = {
        "pack": lambda n: ["pack", str(source), str(tmp_path / f"brick-{n}"), *pack_flags],
        "verify": lambda n: ["verify", str(brick), *common],
        "verify --deep": lambda n: ["verify", "--deep", str(brick), *common],
        "unpack": lambda n: ["unpack", str(brick), str(tmp_path / f"out-{n}"), *common],
    }
    for command, argv in commands.items():
        failing_os.arm(0)
        assert main(argv(0)) == 0
        clean_calls = failing_os.calls
        capsys.readouterr()
        for n in range(1, clean_calls + 1):
            descriptors, threads = descriptors_and_threads()
            failing_os.arm(n)
            code = main(argv(n))
            err = capsys.readouterr().err
            where = f"{command}: call {n} of {clean_calls}, {failing_os.failed} failed"
            assert code in (0, 3), where
            assert "Traceback" not in err, where
            if code == 3:
                assert err.startswith("io error: ") and err.count("\n") == 1, where
            descriptors_after, threads_after = descriptors_and_threads()
            assert not descriptors_after - descriptors and not threads_after - threads, where
            if command == "pack":
                made = tmp_path / f"brick-{n}"
                if code == 3:
                    assert not made.exists(), where
                else:
                    assert main(["verify", "--deep", str(made), *common]) == 0, where
            if command == "unpack":
                out = tmp_path / f"out-{n}"
                restored = read_tree(out) if out.exists() else {}
                assert set(restored) <= set(files), where  # no scratch name is left
                assert all(files[name] == body for name, body in restored.items()), where
                if code == 0:
                    assert restored == files, where
            capsys.readouterr()
