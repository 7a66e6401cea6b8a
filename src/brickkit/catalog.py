"""Built-in link and media catalogs plus CSV ingestion for custom ones.

The embedded rows reproduce a widely circulated 2002 price survey of rented
bandwidth and shippable media; they are the reference inputs for the table
and planning commands. Custom catalogs come in as UTF-8 CSV with mandatory
header rows:

    links.csv: name,mbps,rent_dollars_per_month
    media.csv: name,media_dollars_per_tb,robot_dollars_per_site,robot_sites,
               write_mbps_bytes,read_mbps_bytes,ship_hours,ship_dollars_per_trip,
               reuse_trips
"""

from __future__ import annotations

import csv
from pathlib import Path

from .cost_model import LinkSpec, MediaSpec
from .errors import ConfigError

DEFAULT_LINKS: tuple[LinkSpec, ...] = (
    LinkSpec("home phone", 0.04, 40.0),
    LinkSpec("home DSL", 0.6, 70.0),
    LinkSpec("T1", 1.5, 1200.0),
    LinkSpec("T3", 43.0, 28000.0),
    LinkSpec("OC3", 155.0, 49000.0),
    LinkSpec("100 Mbps", 100.0, None),
    LinkSpec("Gbps", 1000.0, None),
    LinkSpec("OC192", 9600.0, 1920000.0),
)

# Tape and CD/DVD figures assume 6 MBps tape drives and 10 MBps burners with
# a robot at each end. The disk brick reads and writes at 29.24 MBps, the
# rate at which one terabyte round-trips through drives in 19 hours, and
# needs handling apparatus at one site only.
DEFAULT_MEDIA: tuple[MediaSpec, ...] = (
    MediaSpec("CD", media_cost_per_tb=240.0, robot_cost_per_site=800.0, robot_sites=2,
              write_rate_mbps=10.0, read_rate_mbps=10.0, ship_hours=24.0,
              ship_cost_per_trip=0.0, reuse_trips=1),
    MediaSpec("DVD", media_cost_per_tb=400.0, robot_cost_per_site=8000.0, robot_sites=2,
              write_rate_mbps=10.0, read_rate_mbps=10.0, ship_hours=24.0,
              ship_cost_per_trip=0.0, reuse_trips=1),
    MediaSpec("Tape", media_cost_per_tb=1000.0, robot_cost_per_site=15000.0, robot_sites=2,
              write_rate_mbps=6.0, read_rate_mbps=6.0, ship_hours=24.0,
              ship_cost_per_trip=0.0, reuse_trips=10),
    MediaSpec("DiskBrick", media_cost_per_tb=1400.0, robot_cost_per_site=1000.0, robot_sites=1,
              write_rate_mbps=29.24, read_rate_mbps=29.24, ship_hours=24.0,
              ship_cost_per_trip=0.0, reuse_trips=10, capacity_tb=1.0),
)

# Figures as printed in the source survey, kept only so the table command can
# show them next to computed values where the two disagree.
PUBLISHED_MEDIA_FIGURES: dict[str, dict[str, object]] = {
    "CD": {"total": "6 days", "mbps": 28, "cost_10tb": 2080, "per_tb": 208},
    "DVD": {"total": "6 days", "mbps": 28, "cost_10tb": 20000, "per_tb": 2000},
    "Tape": {"total": "5 days", "mbps": 18, "cost_10tb": 31000, "per_tb": 3100},
    "DiskBrick": {"total": "2 days", "mbps": 52, "cost_10tb": 2600, "per_tb": 260},
}

# The survey's one-page summary quotes 3 hours per TB at a gigabit; its
# detailed table says 2.2 hours for the same rate. The computed value is
# the one this toolkit prints.
GBPS_QUICK_REFERENCE = "3 hours"

LINK_COLUMNS = ("name", "mbps", "rent_dollars_per_month")
MEDIA_COLUMNS = (
    "name",
    "media_dollars_per_tb",
    "robot_dollars_per_site",
    "robot_sites",
    "write_mbps_bytes",
    "read_mbps_bytes",
    "ship_hours",
    "ship_dollars_per_trip",
    "reuse_trips",
)


def _read_rows(path: Path, columns: tuple[str, ...]) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ConfigError(f"{path}: empty catalog, header row is mandatory")
        if tuple(reader.fieldnames) != columns:
            raise ConfigError(
                f"{path}: header must be {','.join(columns)},"
                f" got {','.join(reader.fieldnames)}"
            )
        return list(reader)


def _field(row: dict[str, str], column: str, path: Path, line: int) -> str:
    value = row.get(column)
    if value is None:
        raise ConfigError(f"{path}: row {line} is missing the {column} column")
    return value.strip()


def _number(text: str, column: str, path: Path, line: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{path}: row {line}: {column} must be a number, got {text!r}") from None


def load_links(path: str | Path) -> list[LinkSpec]:
    """Load a link catalog; an empty rent cell means the price is unknown."""
    path = Path(path)
    links = []
    for line, row in enumerate(_read_rows(path, LINK_COLUMNS), start=2):
        name = _field(row, "name", path, line)
        speed = _number(_field(row, "mbps", path, line), "mbps", path, line)
        rent_text = _field(row, "rent_dollars_per_month", path, line)
        rent = None if rent_text == "" else _number(rent_text, "rent_dollars_per_month", path, line)
        links.append(LinkSpec(name, speed, rent))
    if not links:
        raise ConfigError(f"{path}: no link rows")
    return links


def load_media(path: str | Path) -> list[MediaSpec]:
    """Load a media catalog."""
    path = Path(path)
    media = []
    for line, row in enumerate(_read_rows(path, MEDIA_COLUMNS), start=2):
        name = _field(row, "name", path, line)

        def num(
            column: str, *, whole: bool = False, line: int = line, row: dict[str, str] = row
        ) -> float:
            value = _number(_field(row, column, path, line), column, path, line)
            if whole and not value.is_integer():
                raise ConfigError(
                    f"{path}: row {line}: {column} must be a whole number, got {value:g}"
                )
            return value

        media.append(
            MediaSpec(
                name,
                media_cost_per_tb=num("media_dollars_per_tb"),
                robot_cost_per_site=num("robot_dollars_per_site"),
                robot_sites=int(num("robot_sites", whole=True)),
                write_rate_mbps=num("write_mbps_bytes"),
                read_rate_mbps=num("read_mbps_bytes"),
                ship_hours=num("ship_hours"),
                ship_cost_per_trip=num("ship_dollars_per_trip"),
                reuse_trips=int(num("reuse_trips", whole=True)),
            )
        )
    if not media:
        raise ConfigError(f"{path}: no media rows")
    return media
