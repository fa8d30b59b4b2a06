"""Shared exception types, the parameter check that raises the first, and
the property check that raises the last.

The CLI maps these onto distinct exit codes, so keep the split coarse:
configuration problems, blown enumeration caps, and violated properties.
"""


class InvalidConfigError(ValueError):
    """Parameters outside the supported range or inconsistent with each other."""


class CapExceededError(RuntimeError):
    """An enumeration or search exceeded its configured cap."""


class PropertyViolationError(AssertionError):
    """A hard invariant that should hold on every valid input failed."""


def need(params: dict, *names, counts: bool = False) -> list:
    """The values of the named parameters, in order.

    A name that is absent or None is missing; with counts=True every value
    must also be a nonnegative int.
    """
    missing = [n for n in names if params.get(n) is None]
    if missing:
        raise InvalidConfigError("missing parameters: %s" % ", ".join(missing))
    values = [params[n] for n in names]
    if counts:
        for n, v in zip(names, values):
            if not isinstance(v, int) or v < 0:
                raise InvalidConfigError("parameter %r must be a nonnegative int" % n)
    return values


def require(cond, detail="property check failed"):
    """Raise PropertyViolationError(detail) unless cond holds.

    The checks the library and the acceptance criteria rely on go through
    here rather than `assert`, which `python -O` strips.
    """
    if not cond:
        raise PropertyViolationError(detail)
