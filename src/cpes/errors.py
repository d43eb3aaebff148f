"""Exception hierarchy for the cpes package, and the config field table."""

import dataclasses
import enum
import math
import numbers
import operator

_COMPARE = {">=": operator.ge, ">": operator.gt, "<": operator.lt}


class CpesError(Exception):
    """Base class for all package-specific errors."""


class InfeasibleConfig(CpesError):
    """A request the settings or the store cannot meet: a setting out of
    range, too few classes or records for an episode, an unknown record."""


class StoreFormatError(CpesError):
    """A CPEM or CPEH file the reader rejects: its magic, version, size,
    header fields or records; or, on write, a planted count or index above u16."""


def setting(default, flag: str | None, least=None, help: str | None = None, above=None,
            below=None):
    """A config field with its default, its CLI flag (whose argparse dest is
    also its --config key; None for a field only the Python API sets) and its
    bounds, declared once: its least valid value, and values it must be above
    and below."""
    bounds = {op: bound for op, bound in ((">=", least), (">", above), ("<", below))
              if bound is not None}
    return dataclasses.field(default=default, metadata=dict(flag=flag, help=help, bounds=bounds))


def is_integer(value) -> bool:
    """Whether ``value`` is an integer that operator.index takes (numpy's
    included), and not a bool."""
    try:
        operator.index(value)
    except TypeError:
        return False
    return not isinstance(value, bool)


def check_settings(config) -> None:
    """Raise InfeasibleConfig for the first field of a config, nested configs
    included, outside its declared bounds, not a member of the enum of its
    default, not an integer where its default is an int (or None, which the
    field may also hold), or not a real number where it is a float; a bool is
    neither, and a float must also be finite."""
    for f in dataclasses.fields(config):
        value, bounds = getattr(config, f.name), f.metadata.get("bounds", {})
        if dataclasses.is_dataclass(value):
            check_settings(value)
        elif isinstance(f.default, enum.Enum) and not isinstance(value, type(f.default)):
            allowed = ", ".join(kind.value for kind in type(f.default))
            raise InfeasibleConfig(f"{f.name} must be one of {allowed}, got {value!r}")
        elif type(f.default) is float and (
            isinstance(value, bool) or not isinstance(value, numbers.Real)
        ):
            raise InfeasibleConfig(f"{f.name} must be a real number, got {value!r}")
        elif type(f.default) in (int, type(None)) and value is not None and not is_integer(value):
            raise InfeasibleConfig(f"{f.name} must be an integer, got {value!r}")
        elif bounds and not (
            value < math.inf and all(_COMPARE[op](value, bound) for op, bound in bounds.items())
        ):
            finite = "finite and " if isinstance(value, float) and "<" not in bounds else ""
            text = " and ".join(f"{op} {bound}" for op, bound in bounds.items())
            raise InfeasibleConfig(f"{f.name} must be {finite}{text}, got {value}")
