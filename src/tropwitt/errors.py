"""Exception types shared across the package."""


class TropwittError(Exception):
    """Base class for all library errors."""


class DegreeOverflowError(TropwittError):
    """An operation would need terms beyond the configured degree bound."""


class ConstantTermError(TropwittError):
    """The inner argument of a composition has a nonzero constant term."""


class FormatError(TropwittError):
    """A JSON document does not match the expected schema."""


_LONG = 10**1000


def _shown(value) -> str:
    """``repr(value)`` for an error text, with each integer of more than
    1000 digits, at any depth of a list or dict, named without its digits:
    past 4300, converting one to text raises a ValueError of its own."""
    if isinstance(value, int) and not -_LONG < value < _LONG:
        return "-" * (value < 0) + "<integer of more than 1000 digits>"
    if isinstance(value, list):
        return f"[{', '.join(map(_shown, value))}]"
    if isinstance(value, dict):
        return f"{{{', '.join(f'{_shown(k)}: {_shown(v)}' for k, v in value.items())}}}"
    return repr(value)
