"""Error types shared across the package, and the readers that raise them.

The CLI maps these onto process exit codes, so raising the right class
matters: configuration and input problems must stay distinguishable from
schedule admissibility violations and from an untrustworthy reference
solve.

Every scalar number outside a problem spec (a schedule parameter, a run
key, a report value) is read by :func:`finite_number` or
:func:`positive_int`, and every problem, ``g`` and schedule spec passes
:func:`only_keys`; each raises ParameterError.
"""

import math
import numbers


class ApgError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ApgError):
    """A run-configuration file is missing, unreadable, or malformed."""


class ParameterError(ApgError, ValueError):
    """A problem, term, or schedule was built with invalid parameters."""


class AdmissibilityError(ApgError):
    """A momentum sequence violates the admissible bracket.

    ``index`` is the 0-based position of the first offending value.
    """

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index

    def __reduce__(self):  # pool workers send errors back pickled
        return type(self), (str(self), self.index)


class OutsideDomain(ApgError):
    """A point with h(x) = +inf was used where a finite value is required."""


class OracleUnreliable(ApgError):
    """The reference-minimum solve found no certified interval for min h.

    ``gap`` is the width of the best interval it had (inf when it had
    none).
    """

    def __init__(self, message: str, gap: float):
        super().__init__(message)
        self.gap = gap

    def __reduce__(self):  # pool workers send errors back pickled
        return type(self), (str(self), self.gap)


class OracleNotApplicable(ApgError):
    """A reference minimum was requested for a problem known to have no minimizer."""


def finite_number(key: str, value) -> float:
    """value as a float when it is a real number that is finite as a float; a bool is not a number."""
    v = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            v = float(value)
        except OverflowError:  # an int beyond the float range
            v = math.inf
    if not math.isfinite(v):
        raise ParameterError(f"{key} must be a finite number, got {value!r}")
    return v


def positive_int(key: str, value) -> int:
    """value when it is an integer from 1 to 2**53; a bool is not an integer."""
    # iteration numbers travel as float64, which holds every integer only up to 2**53
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or not 1 <= value <= 2**53:
        raise ParameterError(f"{key} must be an integer >= 1 and <= 2**53, got {value!r}")
    return value


def only_keys(spec: dict, keys) -> None:
    """Reject the first key of spec, in sorted order, that its builder does not read.

    The message names the spec by its kind when the builder reads one (a
    schedule or ``g`` spec), else by its name (a problem spec).
    """
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        raise ParameterError(f"{spec.get('kind' if 'kind' in keys else 'name')}: unknown key {unknown[0]!r}, "
                             f"expected one of {sorted(keys)}")
