"""The one range check: open and closed ends, NaN, pairs and integers."""

import math
from dataclasses import MISSING, dataclass

import pytest

from gpnav._bounds import bounded, check_bounds


@dataclass(frozen=True)
class Probe:
    rate: float = bounded(MISSING, "(0, inf)")
    share: float = bounded(0.5, "[0, 1]")
    point: tuple[float, float] = bounded((0.0, 0.0), "[-1e3, 1e3]")
    count: int = bounded(3, "(0, 10]")
    free: float = 0.0

    def __post_init__(self) -> None:
        check_bounds(self)


@pytest.mark.parametrize("values", [
    {"rate": 5e-324}, {"rate": 1e308}, {"share": 0.0}, {"share": 1.0},
    {"point": (-1e3, 1e3)}, {"count": 1}, {"count": 10},
    {"free": math.nan},
])
def test_values_inside_or_undeclared_pass(values):
    Probe(**{"rate": 1.0, **values})


@pytest.mark.parametrize("values, message", [
    ({"rate": 0.0}, "rate must be > 0"),
    ({"rate": math.nan}, "rate must be > 0"),
    ({"rate": math.inf}, "rate must be > 0"),   # inf is the open end
    ({"share": math.nextafter(0.0, -1.0)}, r"share must be in \[0, 1\]$"),
    ({"share": math.nextafter(1.0, 2.0)}, r"share must be in \[0, 1\]$"),
    ({"share": math.nan}, r"share must be in \[0, 1\]$"),
    ({"point": (0.0, math.nextafter(1e3, math.inf))},
     r"point must be in \[-1e3, 1e3\] on each axis"),
    ({"point": (math.nan, 0.0)}, r"point must be in \[-1e3, 1e3\] on each axis"),
    ({"count": 0}, r"count must be in \(0, 10\]"),
    ({"count": 11}, r"count must be in \(0, 10\]"),
    # far past an end, where a value's magnitude, not its last bit, is wrong
    ({"share": 1e308}, r"share must be in \[0, 1\]$"),
    ({"point": (0.0, -1e308)}, r"point must be in \[-1e3, 1e3\] on each axis"),
    ({"count": 2**64}, r"count must be in \(0, 10\]"),
])
def test_first_value_outside_its_interval_is_refused(values, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        Probe(**{"rate": 1.0, **values})


def test_fields_are_checked_in_declaration_order():
    with pytest.raises(ValueError, match="^rate "):
        Probe(rate=0.0, share=2.0)
