"""brickkit: move terabytes by wire or by box, verifiably.

Three tools in one package: a cost/latency model that ranks network links
against shipped media for a given dataset, a self-describing "brick"
directory format with per-file integrity, compression, and authenticated
encryption, and disk/network benchmark harnesses for measuring the rates
the model's answers depend on.

Each public name is imported from its home module on first access (PEP 562),
so a caller of one tool does not pay for loading the other two.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Home module of every public name.
_HOMES = {
    "brick": (
        "Finding",
        "PackResult",
        "UnpackResult",
        "VerifyReport",
        "load_manifest",
        "pack",
        "unpack",
        "verify",
    ),
    "catalog": ("DEFAULT_LINKS", "DEFAULT_MEDIA", "load_links", "load_media"),
    "cost_model": (
        "LinkSpec",
        "MediaSpec",
        "PlanOption",
        "TransferEstimate",
        "apply_compression_factor",
        "link_cost_per_tb",
        "link_estimate",
        "link_transfer_time",
        "link_unit_cost",
        "media_campaign_cost",
        "media_estimate",
        "media_transfer_time",
        "recommend",
    ),
    "errors": (
        "BrickKitError",
        "ConfigError",
        "IntegrityError",
        "ManifestError",
        "ProtocolError",
        "UnsupportedVersionError",
    ),
    "io_bench": (
        "BenchReport",
        "BenchSpec",
        "StripeSet",
        "run_io_bench",
        "run_stripe_bench",
        "stripe_map",
    ),
    "manifest": ("ChunkEntry", "KdfParams", "Manifest", "parse_manifest", "serialize_manifest"),
    "net_bench": ("NetReport", "NetSpec", "send", "serve"),
    "units": ("DataSize", "Duration", "humanize_duration", "parse_bench_size", "parse_data_size"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads find it without calling here again
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
