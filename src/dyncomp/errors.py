"""Exception taxonomy shared by all modules."""


class DyncompError(Exception):
    """Base class for all library errors."""


class MixedAmbient(DyncompError):
    """Operands belong to different systems."""


class NotNull(DyncompError):
    """A region that must have measure zero does not."""


class EmptyInput(DyncompError):
    """An operand that must be non-empty is empty."""


class NoGap(DyncompError):
    """A closed set touches the boundary of the open set meant to contain it."""


class BreakpointBudget(DyncompError):
    """A piecewise-linear computation exceeded the breakpoint cap."""


class NonTerminationGuard(DyncompError):
    """An iteration guard tripped before the computation finished."""


class InvalidPartition(DyncompError):
    """Partition elements fail to tile the space with disjoint interiors."""


class DuplicateInput(DyncompError):
    """Input integers that must be distinct are not."""


class UnprovenInput(DyncompError):
    """A combinator received a certificate whose verdict is not 'proven'."""


class SearchExhausted(DyncompError):
    """A bounded search ran out of depth without a hit."""


class NotDisjoint(DyncompError):
    """Sets that must be disjoint intersect."""


class PointOutside(DyncompError):
    """A point that must belong to a region does not."""


class NotContained(DyncompError):
    """A region that must be contained in another is not."""


class GapNonpositive(DyncompError):
    """A measure gap that must be positive is not."""


class ColumnDeficit(DyncompError):
    """A tower column has too few target levels to host an injection."""


class UnrefinedTower(DyncompError):
    """A tower level straddles a partition element."""


class NotSeparated(DyncompError):
    """Closed sets that must be separated touch."""


class MalformedFile(DyncompError):
    """A spec or certificate file violates its grammar."""
