"""Economics of moving big datasets: rented links versus shipped media.

Pure functions over immutable specs; everything here is safe to call from
any number of threads. Times come out in seconds, money in dollars, and
effective bandwidth in decimal megabits per second so the two transport
families can be ranked on one scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError
from .units import MONTH, TB, DataSize, Duration, round_half_up


@dataclass(frozen=True)
class LinkSpec:
    """A rented network link: nominal speed and monthly rent.

    ``rent`` may be None for links quoted without a price (they can still be
    timed, but produce no cost figures).
    """

    name: str
    speed_mbps: float
    rent_per_month: float | None = None

    def __post_init__(self) -> None:
        if not (self.speed_mbps > 0) or not math.isfinite(self.speed_mbps):
            raise ConfigError(f"link {self.name!r}: speed must be > 0 Mbps")
        if self.rent_per_month is not None:
            if not math.isfinite(self.rent_per_month) or self.rent_per_month < 0:
                raise ConfigError(f"link {self.name!r}: rent must be finite and >= 0")


@dataclass(frozen=True)
class MediaSpec:
    """A shippable medium and the apparatus needed at each end.

    Rates are decimal MBps (10^6 bytes/s). ``reuse_trips`` is how many
    round trips one batch of media survives; 1 means write-once.
    ``capacity_tb`` is the advertised capacity of one media unit and is
    informational (compression claims scale it).
    """

    name: str
    media_cost_per_tb: float
    robot_cost_per_site: float
    robot_sites: int
    write_rate_mbps: float
    read_rate_mbps: float
    ship_hours: float
    ship_cost_per_trip: float = 0.0
    reuse_trips: int = 1
    capacity_tb: float | None = None

    def __post_init__(self) -> None:
        figures = (
            self.media_cost_per_tb, self.robot_cost_per_site, self.robot_sites,
            self.write_rate_mbps, self.read_rate_mbps, self.ship_hours,
            self.ship_cost_per_trip, self.reuse_trips, self.capacity_tb or 0.0,
        )
        if not all(math.isfinite(figure) for figure in figures):
            raise ConfigError(f"media {self.name!r}: every figure must be finite")
        if not (self.write_rate_mbps > 0 and self.read_rate_mbps > 0):
            raise ConfigError(f"media {self.name!r}: drive rates must be > 0 MBps")
        if self.reuse_trips < 1:
            raise ConfigError(f"media {self.name!r}: reuse_trips must be >= 1")
        if self.ship_hours < 0 or self.ship_cost_per_trip < 0:
            raise ConfigError(f"media {self.name!r}: shipping figures must be >= 0")
        if self.media_cost_per_tb < 0 or self.robot_cost_per_site < 0 or self.robot_sites < 0:
            raise ConfigError(f"media {self.name!r}: costs must be >= 0")


@dataclass(frozen=True)
class TransferEstimate:
    """Phase-by-phase account of moving a dataset one way.

    Phases never overlap, so total_seconds is their plain sum. Costs are
    None when the strategy has no price attached.
    """

    write_seconds: float
    ship_seconds: float
    read_seconds: float
    total_seconds: float
    effective_mbps: float
    cost_dollars: float | None = None
    dollars_per_tb: float | None = None

    @classmethod
    def from_phases(
        cls,
        size: DataSize,
        write_seconds: float,
        ship_seconds: float,
        read_seconds: float,
        cost_dollars: float | None = None,
        dollars_per_tb: float | None = None,
    ) -> TransferEstimate:
        total = write_seconds + ship_seconds + read_seconds
        effective = (8 * size.bytes / 1e6) / total if total > 0 else 0.0
        return cls(write_seconds, ship_seconds, read_seconds, total, effective,
                   cost_dollars, dollars_per_tb)


def link_transfer_time(size: DataSize, link: LinkSpec) -> Duration:
    """Seconds to push ``size`` through ``link`` at its nominal rate."""
    return Duration(8 * size.bytes / (link.speed_mbps * 1e6))


def link_unit_cost(link: LinkSpec) -> float:
    """Dollars per Mbps per month, the raw price of the link's bandwidth."""
    if link.rent_per_month is None:
        raise ConfigError(f"link {link.name!r} has no rent figure")
    return link.rent_per_month / link.speed_mbps


def link_cost_per_tb(link: LinkSpec) -> int:
    """Whole dollars of rent consumed sending one terabyte, for display."""
    if link.rent_per_month is None:
        raise ConfigError(f"link {link.name!r} has no rent figure")
    months = link_transfer_time(DataSize(TB), link).seconds / MONTH
    return int(round_half_up(link.rent_per_month * months))


def link_estimate(size: DataSize, link: LinkSpec) -> TransferEstimate:
    """Estimate for a link transfer; the wire time occupies the ship phase."""
    seconds = link_transfer_time(size, link).seconds
    cost = per_tb = None
    if link.rent_per_month is not None:
        cost = link.rent_per_month * (seconds / MONTH)
        per_tb = cost / size.tb if size.bytes > 0 else None
    return TransferEstimate.from_phases(size, 0.0, seconds, 0.0, cost, per_tb)


def media_transfer_time(size: DataSize, media: MediaSpec) -> TransferEstimate:
    """Write, ship, and read phases for moving ``size`` on ``media``.

    The pipeline is strictly serial: the shipment leaves only when the last
    byte is written, and reading starts only on arrival.
    """
    write = size.bytes / (media.write_rate_mbps * 1e6)
    read = size.bytes / (media.read_rate_mbps * 1e6)
    ship = media.ship_hours * 3600.0
    return TransferEstimate.from_phases(size, write, ship, read)


def media_campaign_cost(total: DataSize, media: MediaSpec) -> tuple[float, float]:
    """Dollars to ship ``total`` via ``media``: (campaign total, per TB).

    Robots are a fixed cost per site; media is amortized over its reuse
    trips, so write-once media is charged for every terabyte; shipping is
    charged per trip with one trip per reuse of the media batch.
    """
    if total.bytes <= 0:
        raise ConfigError("campaign size must be positive")
    total_tb = total.tb
    trips = media.reuse_trips
    dollars = (
        media.robot_cost_per_site * media.robot_sites
        + media.media_cost_per_tb * (total_tb / media.reuse_trips)
        + media.ship_cost_per_trip * trips
    )
    return dollars, dollars / total_tb


def media_estimate(size: DataSize, media: MediaSpec) -> TransferEstimate:
    """Combined time and campaign-cost estimate for one medium."""
    timing = media_transfer_time(size, media)
    cost, per_tb = media_campaign_cost(size, media)
    return replace(timing, cost_dollars=cost, dollars_per_tb=per_tb)


def apply_compression_factor(media: MediaSpec, ratio: float) -> MediaSpec:
    """The medium as a compressing pipeline would advertise it.

    Drive rates and unit capacity scale up by ``ratio``; cost per advertised
    terabyte scales down. Composition multiplies: applying 2 then 1.25
    equals applying 2.5 once.
    """
    if not (ratio > 0) or not math.isfinite(ratio):
        raise ConfigError(f"compression ratio must be > 0, got {ratio!r}")
    if ratio == 1.0:
        return media
    return replace(
        media,
        name=f"{media.name} (x{ratio:g} compressed)",
        media_cost_per_tb=media.media_cost_per_tb / ratio,
        write_rate_mbps=media.write_rate_mbps * ratio,
        read_rate_mbps=media.read_rate_mbps * ratio,
        capacity_tb=None if media.capacity_tb is None else media.capacity_tb * ratio,
    )


@dataclass(frozen=True)
class PlanOption:
    """One ranked transfer strategy."""

    name: str
    kind: str  # "link" or "media"
    estimate: TransferEstimate


_OBJECTIVES = ("cheapest", "fastest")


def recommend(
    size: DataSize,
    links: list[LinkSpec],
    media: list[MediaSpec],
    objective: str = "fastest",
) -> list[PlanOption]:
    """Evaluate every candidate and rank by the chosen objective.

    "fastest" sorts by total transfer time, "cheapest" by dollars per
    terabyte; ties fall back to the other metric and then to name order.
    Candidates without a price sort last under "cheapest" but stay in the
    list, so flipping the objective only permutes the result.
    """
    if objective not in _OBJECTIVES:
        raise ConfigError(f"objective must be one of {_OBJECTIVES}, got {objective!r}")
    if not links and not media:
        raise ConfigError("no candidate links or media to rank")
    if size.bytes <= 0:
        raise ConfigError("transfer size must be positive")

    options = [PlanOption(l.name, "link", link_estimate(size, l)) for l in links]
    options += [PlanOption(m.name, "media", media_estimate(size, m)) for m in media]

    def key(option: PlanOption) -> tuple[float, float, str]:
        time = option.estimate.total_seconds
        cost = option.estimate.dollars_per_tb
        cost = math.inf if cost is None else cost
        metrics = (cost, time) if objective == "cheapest" else (time, cost)
        return (*metrics, option.name)

    return sorted(options, key=key)
