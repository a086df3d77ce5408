"""Exception types shared across the library."""


class AlignmentError(ValueError):
    """Lengths or shapes of paired structures do not match."""


class ParameterError(ValueError):
    """A scalar or sequence parameter is outside its valid range."""


class ContractViolationError(RuntimeError):
    """A certified property fails: an operator's norm bound or adjoint
    pairing, or the convergence of the shrinkage root finder."""


class DescentViolationError(RuntimeError):
    """The objective increased along the iteration.

    The iteration is guaranteed to decrease the objective whenever the
    certified norm bound actually holds, so an increase means the
    operator lied about its contract and continuing would produce
    garbage.
    """
