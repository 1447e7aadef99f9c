"""Size caps shared by the enumerative routines.

Everything in this package is exponential in some input parameter, so each
entry point checks its arguments against a Caps value and refuses work that
would blow up, raising CapExceededError instead of hanging. The defaults are
sized for desk-scale exploration; pass a custom Caps to go further.
"""

from __future__ import annotations

from dataclasses import dataclass


class CapExceededError(Exception):
    """An input lies beyond the configured enumeration limits."""


@dataclass(frozen=True)
class Caps:
    # rank bound for root/partition/strata enumeration (n <= max_rank)
    max_rank: int = 8
    # bound on |gamma| / |alpha| for partition and strata enumeration
    max_length: int = 12
    # stricter bounds for the finite-field oracle, which enumerates actual
    # module chains and is far more expensive per unit of input
    oracle_max_rank: int = 4
    oracle_max_length: int = 4
    oracle_primes: tuple[int, ...] = (2, 3)
    # bound on the number of candidate lattices a single enumeration may emit
    max_lattice_volume: int = 1_000_000


DEFAULT_CAPS = Caps()


_KINDS = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}


def require_int(name: str, value: object, low: int | None) -> None:
    """Refuse a value that is not an int (a bool is not one) or is below low; None sets no bound."""
    if not isinstance(value, int) or isinstance(value, bool) or (low is not None and value < low):
        raise ValueError(f"{name} must be {_KINDS.get(low, f'an integer >= {low}')}, got {value!r}")


def require_rank(n: int) -> None:
    """Refuse a rank parameter n that is not an integer >= 2; no cap is checked."""
    # require_int's rule, written out because every query runs it; a bool is below 2
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"rank parameter n must be an integer >= 2, got {n!r}")


def check_rank(n: int, caps: Caps = DEFAULT_CAPS) -> None:
    require_rank(n)
    if n > caps.max_rank:
        raise CapExceededError(f"n = {n} exceeds the rank cap {caps.max_rank}")
