"""Exception types shared across the package."""


class ParseError(ValueError):
    """Raised when an input file cannot be parsed.

    Carries the source name, 1-based line number, and the offending token
    so command line reports can point at the exact spot.  An error of a
    whole source has line and token None.
    """

    def __init__(self, source, line, token, message):
        self.source = source
        self.line = line
        self.token = token
        self.message = message
        if line is not None:
            text = f"{source}:{line}: bad token {token!r}: {message}"
        else:
            text = f"{source}: {message}"
        super().__init__(text)


class BudgetExceeded(RuntimeError):
    """A budget ran out: the nodes of an exact search, or the vertices
    asked of a generator.  unit names which, in the message."""

    def __init__(self, nodes, budget, what="search", unit="node"):
        self.nodes = nodes
        self.budget = budget
        super().__init__(f"{what} exceeded {unit} budget ({nodes} > {budget})")


class PreconditionViolated(ValueError):
    """An operation was called on inputs outside its stated domain."""


class NotInClass(PreconditionViolated):
    """The graph is not subcubic planar with girth at least 6.

    The charge audit also raises it for an empty or disconnected graph.
    """


class GenerationFailed(RuntimeError):
    """A randomly grown instance failed its final class check."""


class NotTwoVertex(PreconditionViolated):
    """The chosen vertex does not have degree exactly 2."""


class NotCutVertex(PreconditionViolated):
    """The chosen vertex is not a cut vertex."""


class ListTooSmall(PreconditionViolated):
    """A color list is smaller than the operation requires.

    The square colorer and the six-cycle engine need every list to hold
    at least 7 colors; the message reads "vertex v has a list of size
    k < 7".
    """


class PartialColoring(ValueError):
    """A total coloring was required but some vertex is unassigned."""


class InconsistentRotation(ValueError):
    """A rotation does not match the graph's adjacency."""


class UnknownName(PreconditionViolated):
    """No catalog entry under the requested name."""
