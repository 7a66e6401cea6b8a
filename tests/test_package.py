"""The package's public names, and what `import brickkit` and each command load.

The loading cases each run in a fresh interpreter, because this test process
has long since imported every module.
"""

from __future__ import annotations

import importlib
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

import brickkit
from brickkit import io_bench, net_bench
from brickkit.cli import _PATTERN_ALIASES, build_parser, main
from conftest import FAST_KDF_ITERATIONS

SRC = Path(brickkit.__file__).resolve().parents[1]

# Every public name of the package, by home module.
PUBLIC = {
    "brick": [
        "Finding", "PackResult", "UnpackResult", "VerifyReport",
        "load_manifest", "pack", "unpack", "verify",
    ],
    "catalog": ["DEFAULT_LINKS", "DEFAULT_MEDIA", "load_links", "load_media"],
    "cost_model": [
        "LinkSpec", "MediaSpec", "PlanOption", "TransferEstimate",
        "apply_compression_factor", "link_cost_per_tb", "link_estimate", "link_transfer_time",
        "link_unit_cost", "media_campaign_cost", "media_estimate", "media_transfer_time",
        "recommend",
    ],
    "errors": [
        "BrickKitError", "ConfigError", "IntegrityError", "ManifestError",
        "ProtocolError", "UnsupportedVersionError",
    ],
    "io_bench": [
        "BenchReport", "BenchSpec", "StripeSet", "run_io_bench", "run_stripe_bench", "stripe_map",
    ],
    "manifest": ["ChunkEntry", "KdfParams", "Manifest", "parse_manifest", "serialize_manifest"],
    "net_bench": ["NetReport", "NetSpec", "send", "serve"],
    "units": ["DataSize", "Duration", "humanize_duration", "parse_bench_size", "parse_data_size"],
}
ALL_NAMES = {name for names in PUBLIC.values() for name in names}


def run_fresh(script: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
    )


# ---------- public names ----------

def test_all_lists_every_public_name_once():
    assert len(brickkit.__all__) == len(ALL_NAMES) == 51
    assert set(brickkit.__all__) == ALL_NAMES
    assert brickkit.__version__ == "0.1.0"


@pytest.mark.parametrize("home", list(PUBLIC))
def test_each_name_is_the_object_of_its_home_module(home):
    module = importlib.import_module(f"brickkit.{home}")
    for name in PUBLIC[home]:
        assert getattr(brickkit, name) is getattr(module, name), name


def test_star_import_and_dir_give_every_name():
    namespace: dict = {}
    exec("from brickkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == ALL_NAMES
    assert ALL_NAMES | {"__version__"} <= set(dir(brickkit))


def test_an_unknown_name_is_an_attribute_error_that_names_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        brickkit.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from brickkit import no_such_name", {})


def test_a_submodule_still_imports_by_name_from_a_fresh_package():
    done = run_fresh(
        "from brickkit import payload, tables\n"
        "import brickkit\n"
        "print(payload.__name__, tables.__name__, brickkit.pack.__module__)"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["brickkit.payload", "brickkit.tables", "brickkit.brick"]


def test_parser_literals_are_the_bench_constants():
    assert set(_PATTERN_ALIASES.values()) == {io_bench.PATTERN_SEQUENTIAL, io_bench.PATTERN_RANDOM}
    for pattern in _PATTERN_ALIASES.values():
        assert _PATTERN_ALIASES[pattern] == pattern
    parser = build_parser()
    for role in (net_bench.ROLE_SEND, net_bench.ROLE_RECEIVE):
        assert parser.parse_args(["bench-net", role, "--port", "1"]).role == role


# ---------- what loads ----------

BRICK_FORMAT = ("brickkit.brick", "brickkit.payload", "cryptography")
BENCHES = ("brickkit.io_bench", "brickkit.net_bench")
MODULES = "--- modules ---"


def loaded_by(argv: list[str] | None) -> tuple[int, set[str]]:
    """Exit code and sys.modules after `import brickkit` (argv None) or main(argv)."""
    if argv is None:
        script = "import brickkit\ncode = 0\n"
    else:
        script = f"from brickkit.cli import main\ncode = main({argv!r})\n"
    script += f"import sys\nprint({MODULES!r}, *sys.modules, sep='\\n')\nsys.exit(code)\n"
    done = run_fresh(script)
    assert MODULES in done.stdout, done.stderr
    return done.returncode, set(done.stdout.split(MODULES)[1].split())


def among(modules: set[str], packages: tuple[str, ...]) -> set[str]:
    return {m for m in modules if any(m == p or m.startswith(p + ".") for p in packages)}


def test_import_brickkit_loads_no_submodule_and_no_cryptography():
    code, modules = loaded_by(None)
    assert code == 0
    assert among(modules, ("brickkit",)) == {"brickkit"}
    assert not among(modules, ("cryptography",))


@pytest.mark.parametrize("argv", [["plan", "10TB"], ["tables"]], ids=["plan", "tables"])
def test_plan_and_tables_load_no_brick_format(argv):
    code, modules = loaded_by(argv)
    assert code == 0
    assert "brickkit.cost_model" in modules
    assert not among(modules, BRICK_FORMAT)


@pytest.fixture
def bricks(tmp_path, monkeypatch) -> dict[str, list[str]]:
    """argv of a sealed pack, verify --deep and unpack; the brick is packed here first."""
    monkeypatch.setenv("BRICK_LOAD_PASS", "sesame")
    source = tmp_path / "data"
    source.mkdir()
    (source / "a.txt").write_bytes(b"alpha\n" * 100)
    sealed = ["--codec", "deflate,aes-256-gcm", "--iterations", str(FAST_KDF_ITERATIONS)]
    secret = ["--passphrase-env", "BRICK_LOAD_PASS"]
    assert main(["pack", str(source), str(tmp_path / "brick"), *sealed, *secret]) == 0
    return {
        "pack": ["pack", str(source), str(tmp_path / "brick-2"), *sealed, *secret],
        "verify": ["verify", "--deep", str(tmp_path / "brick"), *secret],
        "unpack": ["unpack", str(tmp_path / "brick"), str(tmp_path / "out"), *secret],
    }


@pytest.mark.parametrize("command", ["pack", "verify", "unpack"])
def test_brick_commands_load_no_bench(bricks, capsys, command):
    capsys.readouterr()
    code, modules = loaded_by(bricks[command])
    assert code == 0
    assert set(BRICK_FORMAT) <= modules
    assert not among(modules, BENCHES)


def test_bench_io_loads_no_brick_format(tmp_path):
    target = str(tmp_path / "disk.bin")
    code, modules = loaded_by(
        ["bench-io", "--op", "write", "--target", target, "--size", "64K", "--no-direct"]
    )
    assert code == 0
    assert "brickkit.io_bench" in modules
    assert not among(modules, BRICK_FORMAT)


def test_bench_net_loads_no_brick_format():
    # A bound socket that never listens: the sender's connect is refused, exit 3.
    with socket.socket() as closed:
        closed.bind(("127.0.0.1", 0))
        port = closed.getsockname()[1]
        code, modules = loaded_by(["bench-net", "send", "--port", str(port), "--duration-ms", "10"])
    assert code == 3
    assert "brickkit.net_bench" in modules
    assert not among(modules, BRICK_FORMAT)
