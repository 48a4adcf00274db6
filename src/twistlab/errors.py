"""The one base of the errors twistlab raises for bad input; it imports nothing."""


class TwistlabError(ValueError):
    """Bad input: ``cli`` exits 2 for it, and 3 for any other exception."""
