"""Exception types shared across the package."""


class CanonlabError(Exception):
    """Base class for canonlab-specific failures."""


class SizeCapError(CanonlabError, ValueError):
    """A computation was refused because it passes a size cap or work bound."""


class PosetFormatError(CanonlabError, ValueError):
    """A poset description is malformed: bad schema, cyclic or redundant covers."""
