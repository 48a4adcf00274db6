"""The one base of the errors twistlab raises for bad input, and its one integer rule; it imports nothing."""


class TwistlabError(ValueError):
    """Bad input: ``cli`` exits 2 for it, and 3 for any other exception."""


def require_int(value, lo: int, error: type, message: str) -> int:
    """value if it is an int, not a bool, of at least lo; else error(f"{message}, not {value!r}")."""
    if isinstance(value, bool) or not isinstance(value, int) or value < lo:
        raise error(f"{message}, not {value!r}")
    return value
