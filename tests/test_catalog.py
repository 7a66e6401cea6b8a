from __future__ import annotations

from dataclasses import replace

import pytest

from brickkit.catalog import (
    DEFAULT_LINKS,
    DEFAULT_MEDIA,
    LINK_COLUMNS,
    MEDIA_COLUMNS,
    PUBLISHED_MEDIA_FIGURES,
    load_links,
    load_media,
)
from brickkit.errors import ConfigError


def test_default_catalog_names():
    assert [link.name for link in DEFAULT_LINKS] == [
        "home phone", "home DSL", "T1", "T3", "OC3", "100 Mbps", "Gbps", "OC192",
    ]
    assert [spec.name for spec in DEFAULT_MEDIA] == ["CD", "DVD", "Tape", "DiskBrick"]
    assert set(PUBLISHED_MEDIA_FIGURES) == {"CD", "DVD", "Tape", "DiskBrick"}


def test_unpriced_links_have_no_rent():
    rents = {link.name: link.rent_per_month for link in DEFAULT_LINKS}
    assert rents["100 Mbps"] is None and rents["Gbps"] is None
    assert rents["OC192"] == 1_920_000.0


def _links_csv(tmp_path, rows):
    path = tmp_path / "links.csv"
    path.write_text("\n".join([",".join(LINK_COLUMNS)] + rows) + "\n")
    return path


def _media_csv(tmp_path, rows):
    path = tmp_path / "media.csv"
    path.write_text("\n".join([",".join(MEDIA_COLUMNS)] + rows) + "\n")
    return path


def test_load_links_round_trip(tmp_path):
    rows = []
    for link in DEFAULT_LINKS:
        rent = "" if link.rent_per_month is None else f"{link.rent_per_month:g}"
        rows.append(f"{link.name},{link.speed_mbps:g},{rent}")
    assert load_links(_links_csv(tmp_path, rows)) == list(DEFAULT_LINKS)


def test_load_links_errors(tmp_path):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("link,speed,price\nT1,1.5,1200\n")
    with pytest.raises(ConfigError, match="header"):
        load_links(bad_header)
    with pytest.raises(ConfigError, match="row 2"):
        load_links(_links_csv(tmp_path, ["T1,fast,1200"]))
    with pytest.raises(ConfigError):
        load_links(_links_csv(tmp_path, ["T1,0,1200"]))
    with pytest.raises(ConfigError, match="no link rows"):
        load_links(_links_csv(tmp_path, []))
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ConfigError, match="empty catalog, header row is mandatory"):
        load_links(empty)
    with pytest.raises(FileNotFoundError):
        load_links(tmp_path / "absent.csv")


def test_load_media_round_trip(tmp_path):
    # The CSV schema has no capacity column; loaded specs carry None there.
    rows = [
        f"{spec.name},{spec.media_cost_per_tb:g},{spec.robot_cost_per_site:g},"
        f"{spec.robot_sites},{spec.write_rate_mbps:g},{spec.read_rate_mbps:g},"
        f"{spec.ship_hours:g},{spec.ship_cost_per_trip:g},{spec.reuse_trips}"
        for spec in DEFAULT_MEDIA
    ]
    loaded = load_media(_media_csv(tmp_path, rows))
    expected = [replace(spec, capacity_tb=None) for spec in DEFAULT_MEDIA]
    assert loaded == expected


def test_load_media_errors(tmp_path):
    with pytest.raises(ConfigError, match="row 2"):
        load_media(_media_csv(tmp_path, ["Tape,1000,15000,two,6,6,24,0,10"]))
    with pytest.raises(ConfigError, match="finite"):
        load_media(_media_csv(tmp_path, ["Tape,1000,15000,2,nan,6,24,0,10"]))
    with pytest.raises(ConfigError, match="row 2: reuse_trips must be a whole number, got 2.7"):
        load_media(_media_csv(tmp_path, ["Tape,1000,15000,2,6,6,24,0,2.7"]))
    short = tmp_path / "short.csv"
    short.write_text(",".join(MEDIA_COLUMNS) + "\nTape,1000\n")
    with pytest.raises(ConfigError):
        load_media(short)
    with pytest.raises(ConfigError, match="no media rows"):
        load_media(_media_csv(tmp_path, []))
