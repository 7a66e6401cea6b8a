from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brickkit.errors import ConfigError
from brickkit.units import (
    DAY,
    HOUR,
    MONTH,
    TB,
    YEAR,
    DataSize,
    Duration,
    humanize_duration,
    parse_bench_size,
    parse_data_size,
    round_half_up,
)


def test_month_is_thirty_days():
    assert MONTH == 30 * 86400


# The nine durations the economics tables print, frozen as (seconds, text).
PUBLISHED_DURATIONS = [
    (2.0e8, "6 years"),          # 1 TB at 0.04 Mbps
    (8e12 / 0.6e6, "5 months"),  # 1 TB at 0.6 Mbps
    (8e12 / 1.5e6, "2 months"),  # 1 TB at 1.5 Mbps
    (8e12 / 43e6, "2 days"),     # 1 TB at 43 Mbps
    (8e12 / 155e6, "14 hours"),  # 1 TB at 155 Mbps
    (8e12 / 9600e6, "14 minutes"),  # 1 TB at 9.6 Gbps
    (80_000.0, "1 day"),         # 1 TB at 100 Mbps
    (8_000.0, "2.2 hours"),      # 1 TB at 1 Gbps
    (8e12 / 1e6, "3 months"),    # 1 TB at 1 Mbps
]


@pytest.mark.parametrize("seconds,expected", PUBLISHED_DURATIONS)
def test_humanize_published_values(seconds, expected):
    assert humanize_duration(seconds) == expected


@pytest.mark.parametrize(
    "seconds,expected",
    [
        (0.0, "0 seconds"),
        (1.0, "1 second"),
        (2.5, "2.5 seconds"),
        (45.0, "0.8 minutes"),   # 0.75 minutes: smallest value that promotes
        (44.9, "45 seconds"),    # 0.748 minutes stays below the threshold
        (45.0 * 60, "0.8 hours"),
        (0.75 * DAY, "1 day"),
        (1.5 * DAY, "2 days"),  # halves round away from zero
        (419_733.3, "5 days"),
        (154_799.45, "2 days"),
        (0.75 * YEAR, "1 year"),
        (9.96 * HOUR, "10 hours"),  # one decimal would print 10.0
        (2.0 * HOUR, "2 hours"),    # whole value never shows .0
    ],
)
def test_humanize_edges(seconds, expected):
    assert humanize_duration(seconds) == expected


def test_humanize_refuses_a_negative_duration():
    with pytest.raises(ConfigError, match="negative"):
        humanize_duration(-1)


def test_humanize_accepts_duration_object():
    assert humanize_duration(Duration(8000.0)) == "2.2 hours"


@pytest.mark.parametrize(
    "value,digits,expected",
    [(2.5, 0, 3.0), (3.5, 0, 4.0), (-2.5, 0, -3.0), (2.25, 1, 2.3), (116.67, 0, 117.0)],
)
def test_round_half_up(value, digits, expected):
    assert round_half_up(value, digits) == expected


@pytest.mark.parametrize(
    "text,expected",
    [
        ("10TB", 10**13),
        ("1 TB", 10**12),
        ("500GB", 5 * 10**11),
        ("2.5TB", 25 * 10**11),
        ("64KB", 64_000),
        ("7B", 7),
        ("1000000", 10**6),
        ("0TB", 0),
    ],
)
def test_parse_data_size(text, expected):
    assert parse_data_size(text).bytes == expected


@pytest.mark.parametrize("text", ["10TiB", "1GiB", "3Ti", "9MiB"])
def test_parse_data_size_rejects_binary_suffixes(text):
    with pytest.raises(ConfigError, match="decimal"):
        parse_data_size(text)


@pytest.mark.parametrize("text", ["", "TB", "-1TB", "1.2.3GB", "9XB", "0.5B"])
def test_parse_data_size_rejects_garbage(text):
    with pytest.raises(ConfigError):
        parse_data_size(text)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("64K", 65_536),
        ("256M", 268_435_456),
        ("1G", 2**30),
        ("8K", 8192),
        ("4096", 4096),
        ("512B", 512),
        ("64KB", 65_536),
        ("0.5K", 512),
    ],
)
def test_parse_bench_size(text, expected):
    assert parse_bench_size(text) == expected


@pytest.mark.parametrize("text", ["64KiB", "1T", "x", "-64K", "0.3K"])
def test_parse_bench_size_rejects(text):
    with pytest.raises(ConfigError):
        parse_bench_size(text)


def test_data_size_constructors():
    assert DataSize.from_tb(1).bytes == TB
    assert DataSize.from_tb(1).bits == 8 * 10**12
    assert DataSize.from_gb(500).tb == 0.5
    with pytest.raises(ConfigError):
        DataSize(-1)


def test_duration_validation_and_views():
    assert Duration(7200.0).hours == 2.0
    assert Duration(86400.0).days == 1.0
    with pytest.raises(ConfigError):
        Duration(-0.1)


@given(st.integers(min_value=0, max_value=10**15))
def test_parse_data_size_round_trips_bytes(n):
    assert parse_data_size(f"{n}B").bytes == n


@given(st.floats(min_value=0.0, max_value=1e10, allow_nan=False))
def test_humanize_total_function(seconds):
    text = humanize_duration(seconds)
    value, unit = text.split(" ", 1)
    assert float(value) >= 0
    assert unit.rstrip("s") in ("year", "month", "day", "hour", "minute", "second")
