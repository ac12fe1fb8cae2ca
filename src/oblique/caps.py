"""Resource caps shared by every computation.

All the search and enumeration routines refuse to start work that would
exceed these bounds, raising :class:`CapExceeded` instead of producing a
partial answer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


class CapExceeded(RuntimeError):
    """A computation would exceed a configured resource cap."""

    def __init__(self, cap_name: str, limit: int, needed, message: str | None = None):
        super().__init__(message or f"cap {cap_name}={limit} exceeded (needed {needed})")
        self.cap_name = cap_name
        self.limit = limit
        self.needed = needed


@dataclass(frozen=True)
class Caps:
    degree: int = 4096          # largest permutation degree
    order_enum: int = 10**6     # largest group whose elements may be listed
    lattice: int = 10**5        # largest group for normal-lattice construction
    ob_star: int = 2000         # largest group for full subgroup enumeration
    aut: int = 512              # largest group for automorphism search

    def with_overrides(self, **kwargs) -> "Caps":
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})

    def check(self, cap_name: str, needed) -> None:
        limit = getattr(self, cap_name)
        if needed > limit:
            raise CapExceeded(cap_name, limit, needed)

    def check_power(self, cap_name: str, p: int, d: int, message: str | None = None) -> int:
        """p**d for p >= 2, after checking it against the cap; refused, as the
        text ``p^d``, without being formed once d reaches the limit's bit
        length, as p**d >= 2**d exceeds the limit then (and its digits could
        pass the length Python converts to a string)."""
        limit = getattr(self, cap_name)
        power = p**d if d < limit.bit_length() else None
        if power is None or power > limit:
            raise CapExceeded(cap_name, limit, f"{p}^{d}", message)
        return power


DEFAULT_CAPS = Caps()
