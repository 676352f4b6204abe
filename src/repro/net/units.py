"""Unit helpers.

The library uses SI units everywhere: capacities and traffic rates in bits
per second, delays in seconds, distances in kilometres.  These helpers exist
so call sites can say ``Gbps(10)`` instead of ``10e9`` and stay readable.
"""

MILLISECOND = 1e-3


def Gbps(value: float) -> float:
    """Gigabits per second expressed in bits per second."""
    return value * 1e9


def ms(value: float) -> float:  # analysis: allow[R401] fixture helper of ~15 test files
    """Milliseconds expressed in seconds."""
    return value * MILLISECOND


def to_ms(seconds: float) -> float:
    """Seconds expressed in milliseconds."""
    return seconds / MILLISECOND


def to_gbps(bps: float) -> float:
    """Bits per second expressed in gigabits per second."""
    return bps / 1e9
