"""Edge multiplicities: natural numbers extended with a countable infinity.

The infinite value (omega) makes infinite emitters finite data.  Arithmetic
follows the absorbing rules n + omega = omega, omega + omega = omega,
n * omega = omega for n >= 1, and 0 * omega = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphError


@dataclass(frozen=True)
class Mult:
    """A multiplicity: a natural number, or omega when `n` is None."""

    n: int | None

    def __post_init__(self):
        if self.n is not None and self.n < 0:
            raise GraphError("PARSE_ERROR", f"multiplicity must be nonnegative, got {self.n}")

    @property
    def is_omega(self) -> bool:
        return self.n is None

    @property
    def is_zero(self) -> bool:
        return self.n == 0

    def __add__(self, other: Mult) -> Mult:
        if self.n is None or other.n is None:
            return OMEGA
        return Mult(self.n + other.n)

    def __mul__(self, other: Mult) -> Mult:
        if self.is_zero or other.is_zero:
            return ZERO
        if self.n is None or other.n is None:
            return OMEGA
        return Mult(self.n * other.n)

    # Total order with omega on top; used for sorting and threshold tests.
    def _key(self) -> tuple[int, int]:
        return (1, 0) if self.n is None else (0, self.n)

    def __lt__(self, other: Mult) -> bool:
        return self._key() < other._key()

    def __le__(self, other: Mult) -> bool:
        return self._key() <= other._key()

    def __str__(self) -> str:
        return "inf" if self.n is None else str(self.n)

    def to_json(self) -> int | str:
        return "inf" if self.n is None else self.n

    @staticmethod
    def from_json(value: int | str) -> Mult:
        if value == "inf":
            return OMEGA
        if isinstance(value, bool) or not isinstance(value, int):
            raise GraphError("PARSE_ERROR", f"multiplicity must be a natural number or 'inf', got {value!r}")
        return Mult(value)


ZERO = Mult(0)
ONE = Mult(1)
OMEGA = Mult(None)


def msum(values) -> Mult:
    total = ZERO
    for v in values:
        total = total + v
    return total
