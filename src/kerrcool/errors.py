"""Exception types shared across the package."""


class KerrcoolError(Exception):
    """Base class for all package errors."""


class ConfigError(KerrcoolError):
    """Invalid or incomplete configuration input."""


class LinearCavityError(ConfigError):
    """Operation requires a nonzero effective Kerr constant, which the
    configured system lacks."""


class BranchPolicyError(KerrcoolError):
    """Branch selection policy cannot be satisfied (e.g. bistable point
    under a monostable-only policy)."""


class InstabilityError(KerrcoolError):
    """Operating point is dynamically unstable (parametric instability of
    the cavity, or net mechanical anti-damping)."""


class DegenerateSpectrumError(KerrcoolError, ValueError):
    """A spectrum without variance (for example at zero drive), whose
    skewness is undefined."""


class DomainError(KerrcoolError, ValueError):
    """An argument outside the domain of the quantity asked for: a spectrum
    grid that is not a strictly increasing 1-D array matching its values,
    an unknown spectrum pair, a heating-side Delta_eff, or a DPA at or
    above threshold."""


class ConvergenceError(KerrcoolError):
    """Iterative routine (a Brent root) failed to converge."""


class InvariantError(KerrcoolError):
    """A result broke an identity the method guarantees (for example a
    stable middle root, or two routes to one rate that disagree)."""
