"""Single-field ranges, declared once on their dataclass field, and their check.

bounded(default, "(0, 1e6]") declares a field whose metadata holds the
interval, parsed once; inf marks an unbounded side. check_bounds(params)
raises ValueError for the first value outside its interval (NaN is outside
every one), on each coordinate of a tuple[float, float] field. Messages print
numbers as declared: "alpha_slope must be > 0", "scale must be in (0, 1e6]",
and a pair appends " on each axis".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields


@dataclass(frozen=True)
class Interval:
    low: float
    high: float
    low_closed: bool
    high_closed: bool
    rule: str      # "must be > 0", "must be in (0, 1e6]"

    def __contains__(self, value) -> bool:
        return ((value >= self.low if self.low_closed else value > self.low)
                and (value <= self.high if self.high_closed else value < self.high))


def bounded(default, interval: str):
    """A dataclass field with this default (MISSING: required) and range."""
    low, high = (end.strip() for end in interval[1:-1].split(","))
    low_closed, high_closed = interval[0] == "[", interval[-1] == "]"
    rule = (f"must be {'>=' if low_closed else '>'} {low}" if float(high) == math.inf
            else f"must be in {interval}")
    return field(default=default, metadata={"bound": Interval(
        float(low), float(high), low_closed, high_closed, rule)})


def check_bounds(params) -> None:
    """Raise ValueError naming the first field of params outside its range."""
    for f in fields(params):
        bound = f.metadata.get("bound")
        if bound is None:
            continue
        value = getattr(params, f.name)
        if str(f.type) == "tuple[float, float]":
            if not all(c in bound for c in value):
                raise ValueError(f"{f.name} {bound.rule} on each axis")
        elif value not in bound:
            raise ValueError(f"{f.name} {bound.rule}")
