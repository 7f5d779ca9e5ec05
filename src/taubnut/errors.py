"""Exception types shared across the package, and the one rule for counts."""

import numbers


class TaubnutError(Exception):
    """Base class for all library errors."""


class DomainError(TaubnutError):
    """Evaluation outside the chart: r <= n, r below a family's turning radius, etc."""


class AxisError(TaubnutError):
    """Evaluation too close to the polar axis where 1/sin(theta) terms blow up."""


class DegenerateError(TaubnutError):
    """Degenerate family constants (r1 = 0, or a vanishing denominator like R - n)."""


class ConfigError(TaubnutError):
    """Invalid configuration values (tolerances, modes, malformed family records)."""


class RangeError(TaubnutError):
    """Requested value outside the attained range of a monotone branch."""


class NotAGeodesic(TaubnutError):
    """State pattern incompatible with the geodesic equations (constant r with motion)."""


def _require_count(name: str, value, minimum: int) -> None:
    """ConfigError unless value is an integral number of at least minimum; a
    bool is refused, and so is a float, even an integral one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigError(f"{name} must be an integer of at least {minimum}, got {value!r}")
