"""Typed errors shared across the toolkit."""


class NotAGroup(ValueError):
    """A composition table or constructor argument fails the group axioms."""


class BadDescriptor(NotAGroup):
    """A group descriptor is not an object of a known kind with integer parameters."""


class IdentityNotZero(NotAGroup):
    """A composition table has an identity, but it is not at index 0."""


class GroupTooLarge(ValueError):
    """The group exceeds a size limit for an exhaustive lattice computation."""


class ProfileTooLarge(ValueError):
    """A dense count matrix would exceed its cell budget; nothing was allocated."""


class IdentityDelta(ValueError):
    """delta = 0 was passed where a non-identity shift is required."""


class BadWeight(ValueError):
    """A weight vector has the wrong length or a weight outside (0, 1]."""


class NotADifferenceSet(ValueError):
    """A construction needed a difference set and the given set is not one."""


class OverlappingSubgroups(ValueError):
    """Two subgroups share a non-identity element where triviality was required."""


class PartitionFailure(ValueError):
    """A construction could not partition the non-identity elements as promised."""


class BadResidueClass(ValueError):
    """A prime power fails the residue condition a construction needs."""


class NotPrimePower(ValueError):
    """An integer that must be a prime power is not one."""


class InfeasibleParameters(ValueError):
    """Search parameters violate a structural identity before any enumeration."""


class BudgetExceeded(RuntimeError):
    """The search node budget ran out; partial results ride on the exception."""

    def __init__(self, message, families=None, stats=None):
        super().__init__(message)
        self.families = families if families is not None else []
        self.stats = stats
