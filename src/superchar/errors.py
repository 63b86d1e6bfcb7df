"""Exception types shared across the package."""

from __future__ import annotations


class SuperCharError(Exception):
    """Base class for all package-specific errors."""


class BadField(SuperCharError):
    """q is not a prime power, or the modulus polynomial is unusable."""


class SpecMismatch(SuperCharError):
    """Operands belong to different fields, closed sets, or algebras."""


class PairOutOfRange(SuperCharError):
    """A position (i, j) violates 1 <= i < j <= n."""


class NotClosed(SuperCharError):
    """A pair set is not closed under composition.

    ``witnesses`` lists every triple (i, j, k) with (i, j) and (j, k)
    present but (i, k) missing.
    """

    def __init__(self, witnesses):
        self.witnesses = tuple(witnesses)
        shown = ", ".join(str(w) for w in self.witnesses[:8])
        more = "" if len(self.witnesses) <= 8 else f" (+{len(self.witnesses) - 8} more)"
        super().__init__(f"not closed; missing composites for: {shown}{more}")


class ParseError(SuperCharError):
    """Syntax error in a spec file or functional literal."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


class SizeCapExceeded(SuperCharError):
    """An enumeration or allocation would exceed its cap, counted in ``what``."""

    def __init__(self, needed: int, cap: int, what: str = "items"):
        self.needed = needed
        self.cap = cap
        super().__init__(f"{needed} {what} exceed the cap of {cap}")


class InternalInvariantViolation(SuperCharError):
    """A proven identity failed; signals an implementation bug, not bad input."""


class NonIntegralScaling(InternalInvariantViolation):
    """The orbit-sum scaling |lambda*U| / |U*lambda*U| did not divide exactly."""


class NotAssociative(SuperCharError):
    """Structure constants violate associativity at the given indices."""

    def __init__(self, i: int, j: int, k: int, l: int):
        self.indices = (i, j, k, l)
        super().__init__(
            "associativity fails at basis indices "
            f"{i + 1}, {j + 1}, {k + 1} (component {l + 1})"
        )


class NotNilpotent(SuperCharError):
    """Structure constants define a non-nilpotent algebra."""

    def __init__(self, witness):
        self.witness = tuple(witness)
        seq = "*".join(f"v{i + 1}" for i in self.witness)
        super().__init__(f"nonzero product of {len(self.witness)} basis elements: {seq}")


class ShapeMismatch(SuperCharError):
    """The closed set does not have the shape a specialized formula requires."""


class NonMonomialRepresentative(SuperCharError):
    """A functional needed at most one nonzero entry per row and column."""
