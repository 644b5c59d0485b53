"""Shared exception taxonomy.

The split mirrors who is at fault: ConfigError means the caller handed us
invalid inputs, InvariantViolation means a mathematical identity or a
numeric guarantee broke at runtime, CertificateFailure means a safety gate
refused to evaluate. A fit that merely runs out of degree budget is not an
exception class of its own kind: ToleranceUnreachable carries the best
attempt so builders can turn it into recorded data.
"""


class ConfigError(ValueError):
    """Invalid parameters or inputs. CLI exit code 1."""


class InvariantViolation(RuntimeError):
    """A checked identity or interleaving guarantee failed. CLI exit code 2."""


class CertificateFailure(RuntimeError):
    """A runtime safety gate (reciprocal min-modulus) refused evaluation. CLI exit code 4."""


class UnderdeterminedFit(ConfigError):
    """Fewer samples than coefficients."""


class BasisBreakdown(ConfigError):
    """Orthogonalization norm underflow; the sample grid is degenerate."""


class WitnessCriterionError(ConfigError):
    """The two boundary directions sit at the same level for every radius;
    pick directions with distinct Re(conj(a) * zeta)."""


class InterleavingViolated(InvariantViolation):
    """Computed crossing radii collided or came out of order."""


class EscapesDisc(ConfigError):
    """A sampled compactum reaches the unit circle."""


class ParameterDiscTooLarge(ConfigError):
    """The shifted-automorphism family moves the target polynomial more than
    the stage bound allows; shrink the parameter disc radius."""


class ToleranceUnreachable(RuntimeError):
    """Degree budget exhausted before the requested tolerance.

    No fit at any doubling target of fit_until met it. Carries the best of
    those fits, its report, the (degree, sup) history of the targets so
    callers can record the residual plateau, and lower_bound, at most the
    grid sup of every polynomial of degree <= bound_degree (None if unknown).
    """

    def __init__(self, message, polynomial=None, report=None, history=None,
                 bound_degree=None, lower_bound=None):
        super().__init__(message)
        self.polynomial = polynomial
        self.report = report
        self.history = list(history or [])
        self.bound_degree = bound_degree
        self.lower_bound = lower_bound
