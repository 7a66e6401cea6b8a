from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from brickkit.catalog import DEFAULT_LINKS, DEFAULT_MEDIA
from brickkit.cost_model import (
    LinkSpec,
    MediaSpec,
    TransferEstimate,
    apply_compression_factor,
    link_cost_per_tb,
    link_estimate,
    link_transfer_time,
    link_unit_cost,
    media_campaign_cost,
    media_estimate,
    media_transfer_time,
    recommend,
)
from brickkit.errors import ConfigError
from brickkit.units import DataSize, humanize_duration, round_half_up

ONE_TB = DataSize.from_tb(1)
TEN_TB = DataSize.from_tb(10)

LINKS = {link.name: link for link in DEFAULT_LINKS}
MEDIA = {spec.name: spec for spec in DEFAULT_MEDIA}

# Frozen closure for the priced links: published ($/Mbps/mo, $/TB) pairs.
# Independently derivable: unit = rent/speed; per-TB = rent x (8e12 bits /
# (speed x 1e6)) / 2,592,000 s, both rounded half-up to whole dollars.
PUBLISHED_LINK_COSTS = {
    "home phone": (1000, 3086),
    "home DSL": (117, 360),
    "T1": (800, 2469),
    "T3": (651, 2010),
    "OC3": (316, 976),
    "OC192": (200, 617),
}

PUBLISHED_LINK_TIMES = {
    "home phone": "6 years",
    "home DSL": "5 months",
    "T1": "2 months",
    "T3": "2 days",
    "OC3": "14 hours",
    "100 Mbps": "1 day",
    "Gbps": "2.2 hours",
    "OC192": "14 minutes",
}


@pytest.mark.parametrize("name", sorted(PUBLISHED_LINK_COSTS))
def test_link_costs_close_exactly(name):
    link = LINKS[name]
    unit, per_tb = PUBLISHED_LINK_COSTS[name]
    assert round_half_up(link_unit_cost(link)) == unit
    assert link_cost_per_tb(link) == per_tb


@pytest.mark.parametrize("name", sorted(PUBLISHED_LINK_TIMES))
def test_link_times_humanize_to_published_strings(name):
    duration = link_transfer_time(ONE_TB, LINKS[name])
    assert humanize_duration(duration) == PUBLISHED_LINK_TIMES[name]


def test_terabyte_takes_8000_seconds_at_a_gigabit():
    # 1 TB is 8 trillion bits; at 10^9 bits/s that is exactly 8000 s.
    assert ONE_TB.bits == 8_000_000_000_000
    assert link_transfer_time(ONE_TB, LINKS["Gbps"]).seconds == 8000.0


def test_link_transfer_time_formula():
    assert link_transfer_time(ONE_TB, LinkSpec("x", 100.0)).seconds == 80_000.0
    assert link_transfer_time(DataSize(0), LinkSpec("x", 100.0)).seconds == 0.0


def test_link_unit_cost_requires_rent():
    with pytest.raises(ConfigError):
        link_unit_cost(LINKS["Gbps"])
    with pytest.raises(ConfigError):
        link_cost_per_tb(LINKS["100 Mbps"])


def test_link_estimate_shape():
    estimate = link_estimate(TEN_TB, LINKS["T3"])
    assert estimate.write_seconds == 0.0
    assert estimate.read_seconds == 0.0
    assert estimate.ship_seconds == estimate.total_seconds
    assert estimate.effective_mbps == pytest.approx(43.0)
    assert estimate.dollars_per_tb == pytest.approx(2010.0, abs=0.5)
    unpriced = link_estimate(TEN_TB, LINKS["Gbps"])
    assert unpriced.cost_dollars is None and unpriced.dollars_per_tb is None


# Frozen media pipeline oracles for 1 TB: write/read at the catalog rate,
# 24 h in a box, phases strictly serial.
TAPE_TOTAL_SECONDS = 2 * (10**12 / 6e6) + 86_400.0       # 419,733.33
BRICK_TOTAL_SECONDS = 2 * (10**12 / 29.24e6) + 86_400.0  # 154,799.45


def test_media_transfer_time_tape():
    timing = media_transfer_time(ONE_TB, MEDIA["Tape"])
    assert timing.total_seconds == pytest.approx(TAPE_TOTAL_SECONDS, rel=1e-12)
    assert timing.write_seconds == timing.read_seconds
    assert timing.ship_seconds == 86_400.0
    assert humanize_duration(timing.total_seconds) == "5 days"
    assert timing.effective_mbps == pytest.approx(19.06, abs=0.01)


def test_media_transfer_time_brick():
    timing = media_transfer_time(ONE_TB, MEDIA["DiskBrick"])
    assert timing.total_seconds == pytest.approx(BRICK_TOTAL_SECONDS, rel=1e-12)
    assert humanize_duration(timing.total_seconds) == "2 days"
    assert timing.effective_mbps == pytest.approx(51.68, abs=0.01)


# Frozen campaign-cost oracles at 10 TB: robots + media/reuse + shipping.
PUBLISHED_CAMPAIGN_COSTS = {
    "CD": (4_000.0, 400.0),        # computed; published 2,080 is the anomaly
    "DVD": (20_000.0, 2_000.0),
    "Tape": (31_000.0, 3_100.0),
    "DiskBrick": (2_400.0, 240.0),
}


@pytest.mark.parametrize("name", sorted(PUBLISHED_CAMPAIGN_COSTS))
def test_media_campaign_costs(name):
    cost, per_tb = media_campaign_cost(TEN_TB, MEDIA[name])
    expected_cost, expected_per_tb = PUBLISHED_CAMPAIGN_COSTS[name]
    assert cost == pytest.approx(expected_cost)
    assert per_tb == pytest.approx(expected_per_tb)


def test_media_campaign_cost_rejects_empty_campaign():
    with pytest.raises(ConfigError):
        media_campaign_cost(DataSize(0), MEDIA["Tape"])


def test_media_estimate_combines_timing_and_cost():
    estimate = media_estimate(TEN_TB, MEDIA["DiskBrick"])
    assert estimate.cost_dollars == pytest.approx(2_400.0)
    assert estimate.dollars_per_tb == pytest.approx(240.0)
    assert estimate.total_seconds > estimate.ship_seconds


def test_cd_dvd_total_time_tie():
    cd = media_transfer_time(TEN_TB, MEDIA["CD"])
    dvd = media_transfer_time(TEN_TB, MEDIA["DVD"])
    assert cd.total_seconds == dvd.total_seconds == 2_086_400.0


def test_apply_compression_factor_published_claim():
    base = MediaSpec(
        "GBX", media_cost_per_tb=1400.0, robot_cost_per_site=1000.0, robot_sites=1,
        write_rate_mbps=25.0, read_rate_mbps=25.0, ship_hours=24.0, capacity_tb=1.0,
    )
    squeezed = apply_compression_factor(base, 2.5)
    assert squeezed.write_rate_mbps == pytest.approx(62.5)
    assert squeezed.read_rate_mbps == pytest.approx(62.5)
    assert squeezed.capacity_tb == pytest.approx(2.5)
    assert squeezed.media_cost_per_tb == pytest.approx(1400.0 / 2.5)
    assert "x2.5" in squeezed.name


def test_apply_compression_factor_identity_and_errors():
    spec = MEDIA["Tape"]
    assert apply_compression_factor(spec, 1.0) is spec
    with pytest.raises(ConfigError):
        apply_compression_factor(spec, 0.0)
    with pytest.raises(ConfigError):
        apply_compression_factor(spec, -2.0)


def test_transfer_estimate_from_phases():
    estimate = TransferEstimate.from_phases(ONE_TB, 100.0, 200.0, 300.0, None, None)
    assert estimate.total_seconds == 600.0
    assert estimate.effective_mbps == pytest.approx(8e12 / 1e6 / 600.0)
    zero = TransferEstimate.from_phases(DataSize(0), 0.0, 0.0, 0.0, None, None)
    assert zero.effective_mbps == 0.0


def test_recommend_validates_inputs():
    with pytest.raises(ConfigError):
        recommend(ONE_TB, list(DEFAULT_LINKS), list(DEFAULT_MEDIA), objective="soonest")
    with pytest.raises(ConfigError):
        recommend(ONE_TB, [], [])
    with pytest.raises(ConfigError):
        recommend(DataSize(0), list(DEFAULT_LINKS), list(DEFAULT_MEDIA))


def test_recommend_fastest_ten_terabytes():
    options = recommend(TEN_TB, list(DEFAULT_LINKS), list(DEFAULT_MEDIA), "fastest")
    names = [option.name for option in options]
    assert names[0] == "OC192"  # 2.3 hours beats every physical pipeline
    assert names[-1] == "home phone"
    times = [option.estimate.total_seconds for option in options]
    assert times == sorted(times)
    assert set(names) == set(LINKS) | set(MEDIA)


def test_recommend_cheapest_orders_by_dollars_per_tb():
    options = recommend(ONE_TB, list(DEFAULT_LINKS), list(DEFAULT_MEDIA), "cheapest")
    costs = [
        math.inf if o.estimate.dollars_per_tb is None else o.estimate.dollars_per_tb
        for o in options
    ]
    assert costs == sorted(costs)
    assert options[0].name == "home DSL"  # $360/TB, robots make media dearer at 1 TB
    priced = [o.name for o in options if o.estimate.dollars_per_tb is not None]
    assert set(priced) == set(PUBLISHED_LINK_COSTS) | set(MEDIA)


def test_recommend_tie_breaks_on_secondary_metric():
    options = recommend(TEN_TB, [], [MEDIA["DVD"], MEDIA["CD"]], "fastest")
    assert [option.name for option in options] == ["CD", "DVD"]


def test_recommend_objectives_permute_same_options():
    fastest = recommend(TEN_TB, list(DEFAULT_LINKS), list(DEFAULT_MEDIA), "fastest")
    cheapest = recommend(TEN_TB, list(DEFAULT_LINKS), list(DEFAULT_MEDIA), "cheapest")
    assert sorted(o.name for o in fastest) == sorted(o.name for o in cheapest)


@given(
    st.integers(min_value=1, max_value=10**15),
    st.permutations(list(PUBLISHED_LINK_COSTS)),
)
def test_links_only_fastest_ranking_is_size_invariant(size_bytes, names):
    links = [LINKS[name] for name in names]
    small = recommend(DataSize(size_bytes), links, [], "fastest")
    large = recommend(DataSize(size_bytes * 7), links, [], "fastest")
    assert [o.name for o in small] == [o.name for o in large]


@given(st.floats(min_value=0.01, max_value=1000.0, allow_nan=False))
def test_link_time_scales_inversely_with_speed(speed):
    base = link_transfer_time(ONE_TB, LinkSpec("x", speed)).seconds
    doubled = link_transfer_time(ONE_TB, LinkSpec("x", 2 * speed)).seconds
    assert doubled == pytest.approx(base / 2, rel=1e-9)


def test_spec_validation():
    with pytest.raises(ConfigError):
        LinkSpec("x", 0.0)
    with pytest.raises(ConfigError):
        LinkSpec("x", -1.0)
    with pytest.raises(ConfigError):
        MediaSpec("m", media_cost_per_tb=-1.0, robot_cost_per_site=0.0, robot_sites=1,
                  write_rate_mbps=1.0, read_rate_mbps=1.0, ship_hours=0.0)
    with pytest.raises(ConfigError):
        MediaSpec("m", media_cost_per_tb=1.0, robot_cost_per_site=0.0, robot_sites=1,
                  write_rate_mbps=0.0, read_rate_mbps=1.0, ship_hours=0.0)
    for rent in (-1.0, math.inf):
        with pytest.raises(ConfigError, match="rent must be finite and >= 0"):
            LinkSpec("x", 1.0, rent)
    with pytest.raises(ConfigError, match="reuse_trips must be >= 1"):
        MediaSpec("m", media_cost_per_tb=1.0, robot_cost_per_site=0.0, robot_sites=1,
                  write_rate_mbps=1.0, read_rate_mbps=1.0, ship_hours=0.0, reuse_trips=0)
    with pytest.raises(ConfigError, match="shipping figures must be >= 0"):
        MediaSpec("m", media_cost_per_tb=1.0, robot_cost_per_site=0.0, robot_sites=1,
                  write_rate_mbps=1.0, read_rate_mbps=1.0, ship_hours=-1.0)
