"""Exception types shared across the library.

Every operation-level failure raises a subclass of SuccmsoError so the CLI
can map it to an exit code and a stable error name.
"""


class SuccmsoError(Exception):
    """Base class for all library errors."""

    @property
    def name(self):
        return type(self).__name__


# circuit
class InputOutOfRange(SuccmsoError):
    pass


class BadParam(SuccmsoError):
    pass


class ParseError(SuccmsoError):
    pass


class TopologyError(SuccmsoError):
    pass


# graph
class PortArityMismatch(SuccmsoError):
    pass


class EmptyWord(SuccmsoError):
    pass


class BadVertex(SuccmsoError):
    pass


class TooLarge(SuccmsoError):
    pass


# sgr
class LabelOutOfRange(SuccmsoError):
    pass


class TooLargeToMaterialize(SuccmsoError):
    pass


# mso
class ScopeError(SuccmsoError):
    pass


class TooLargeForBruteForce(SuccmsoError):
    pass


# treedec
class EmptyDecomposition(SuccmsoError):
    pass


class NotALeaf(SuccmsoError):
    pass


class BadAnchorBags(SuccmsoError):
    pass


# efgame
class EmptyGraph(SuccmsoError):
    pass


class BoundTooLarge(SuccmsoError):
    pass


# reduce
class IndexOutOfRange(SuccmsoError):
    pass


class BadLiteral(SuccmsoError):
    pass


class ConditionError(SuccmsoError):
    """Failure of the named ``condition``; str() is "condition: message"."""

    def __init__(self, condition, message=""):
        self.condition, self.message = condition, message
        super().__init__(f"{condition}: {message}" if message else condition)


class ValidationError(ConditionError):
    """A gadget quadruple failed a compiler precondition: ``condition`` is
    one of COND_I, COND_II, COND_III, PORT_ALIGNMENT."""


class NotValidated(SuccmsoError):
    pass


class ConstructionFailed(ConditionError):
    pass
