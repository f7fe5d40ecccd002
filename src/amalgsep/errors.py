"""Exception taxonomy shared by all modules.

InputError subclasses signal malformed user input (CLI exit code 2).
Everything else is a library-level contract violation.
"""


class AmalgsepError(Exception):
    """Base class for all library errors."""


class InputError(AmalgsepError):
    """Malformed or inconsistent input data."""


class NotAssociative(InputError):
    def __init__(self, triple):
        self.triple = triple
        super().__init__(f"table is not associative on triple {triple}")


class NoIdentity(InputError):
    def __init__(self, detail=""):
        super().__init__(f"element 0 is not a two-sided identity{': ' + detail if detail else ''}")


class NotInvertible(InputError):
    def __init__(self, element):
        self.element = element
        super().__init__(f"element {element} has no two-sided inverse")


class NotSubgroup(AmalgsepError):
    pass


class NotNormal(AmalgsepError):
    pass


class NotCyclic(AmalgsepError):
    pass


class NotIsomorphism(AmalgsepError):
    def __init__(self, detail):
        super().__init__(f"map is not an isomorphism: {detail}")


class PresentationMismatch(AmalgsepError):
    pass


class PreconditionViolated(AmalgsepError):
    def __init__(self, name, detail=""):
        self.name = name
        super().__init__(f"precondition violated: {name}{' (' + detail + ')' if detail else ''}")


class NoSuchM(AmalgsepError):
    """No normal subgroup of p-power index separates the given element.

    Signals that some p'-isolated cyclic subgroup of the base group is not
    p-separable there, so the extension construction cannot proceed.
    """


class RankMismatch(AmalgsepError):
    pass


class NotCompatible(AmalgsepError):
    pass


class WrongSide(AmalgsepError):
    pass


class UnknownCase(InputError):
    pass
