"""Error types shared across the package.

The CLI maps these onto process exit codes, so raising the right class
matters: configuration and input problems must stay distinguishable from
schedule admissibility violations and from an untrustworthy reference
solve.
"""


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
    """The two legs of the reference-minimum solve disagree too much."""

    def __init__(self, message: str, disagreement: float):
        super().__init__(message)
        self.disagreement = disagreement

    def __reduce__(self):  # pool workers send errors back pickled
        return type(self), (str(self), self.disagreement)


class OracleNotApplicable(ApgError):
    """A reference minimum was requested for a problem known to have no minimizer."""
