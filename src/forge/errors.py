"""Exception hierarchy shared by every module, and the default caps
whose excess raises WindowOverflow or a CapExceeded.

ForgeError is the root; the CLI maps it to exit code 2 (bad input or
unsatisfiable request), while verification failures are reported through
return values, never exceptions.  InternalError stands outside that root:
it marks a broken invariant of forge itself, which must never be mistaken
for bad input.
"""


class ForgeError(Exception):
    """Base class for all errors raised by this package."""


class InternalError(Exception):
    """An invariant of the exact computation failed: a bug, not bad input."""


class BadParameter(ForgeError):
    """Malformed spec string, option value, or file content."""


class UnknownFixture(ForgeError):
    """Fixture name not present in the catalog."""


class SelfLoop(ForgeError):
    """Edge list contains an edge (v, v)."""


class DuplicateEdge(ForgeError):
    """Edge list contains a repeated undirected edge."""


class DisconnectedGraph(ForgeError):
    """Graph is not connected from the base point."""


class RadiusExceeded(ForgeError):
    """Query leaves the region where a truncated window is exact."""


class IndexOutOfRange(ForgeError):
    """Sphere index outside the index set of the pointed graph."""


class EmptySphere(ForgeError):
    """A walk step conditions on an empty sphere."""


class NotSymmetric(ForgeError):
    """Cayley generator set is not closed under inverses."""


class ContainsIdentity(ForgeError):
    """Cayley generator set contains the identity element."""


class NotGenerating(ForgeError):
    """Generator set does not generate the group."""


class KindMismatch(ForgeError):
    """Group elements from different groups combined."""


WINDOW_CAP = 200_000  # vertices of one Cayley window
FINITE_CAP = 2_000_000  # vertices, or bipartite edges, of one finite graph built here
ENUMERATION_CAP = 10**8  # step tuples of one brute-force product
PATTERN_CAP = 10**6  # distance patterns of one joint law
DEFAULT_GRAPH_CAP = 100_000  # graphs of one conjecture search


class WindowOverflow(ForgeError):
    """A window or a finite graph would exceed its size cap."""


class CapExceeded(ForgeError):
    """A configured enumeration cap was hit."""


class EnumerationCapExceeded(CapExceeded):
    """Brute-force product enumeration would exceed the tuple cap."""


class PatternCapExceeded(CapExceeded):
    """Joint-law pattern space would exceed the pattern cap."""


class NotCayley(ForgeError):
    """Operation requires a Cayley graph but got a plain pointed graph."""


class NotFinite(ForgeError):
    """Operation requires a finite group."""


class ZeroProbabilityCondition(ForgeError):
    """Conditional probability requested against a null event."""


class TruncatedMatrix(ForgeError):
    """Operation requires a complete (untruncated) matrix."""
