"""Exception taxonomy shared by all ks2 modules."""


class KsError(Exception):
    """Base class for all errors raised by this package."""


# --- matrix kernels ---------------------------------------------------------

class InvalidMatrix(KsError):
    """Matrix has non-finite entries or is otherwise unusable."""


class SingularSystem(KsError):
    """Linear system is numerically singular (Cholesky failed with shift 0)."""


class NotPositiveDefinite(KsError):
    """Matrix is not positive definite (smallest eigenvalue below the floor)."""


class DimMismatch(KsError):
    """Operands have incompatible dimensions."""


# --- instances --------------------------------------------------------------

class NotIsotropic(KsError):
    """Vector family fails the isotropy gate.  Carries the measured deviation."""

    def __init__(self, deviation, tol):
        self.deviation = deviation
        self.tol = tol
        super().__init__(f"||sum v v^T - I|| = {deviation:.3e} exceeds tolerance {tol:.3e}")


class EmptyInstance(KsError):
    """Instance with no vectors or zero dimension."""


class BadSubset(KsError):
    """Subset indices out of range or duplicated."""


class DegenerateSample(KsError):
    """Sampled vectors have a singular second-moment matrix; cannot whiten."""


# --- sparsifier / solver ----------------------------------------------------

class BadParams(KsError):
    """Parameter outside its documented range."""


class DegenerateDimension(KsError):
    """d = 1 makes the sampling budget 8*log(d)/mu^2 vanish; use d >= 2."""


class InvalidVector(KsError):
    """Vector has non-finite entries or wrong length."""


class InfeasibleParameters(KsError):
    """c*sqrt(alpha) >= 1/2: the target band touches 0 or 1."""


# --- search limits ----------------------------------------------------------

class TooLarge(KsError):
    """A search or enumeration exceeds its configured size limit."""


# --- reduction --------------------------------------------------------------

class ParseError(KsError):
    """Malformed DIMACS input."""


class Not3Cnf(KsError):
    """A clause does not have exactly three literals."""


class BadAssignment(KsError):
    """Assignment length does not match the variable count."""


class NotKsForm(KsError):
    """Formula violates the restricted-occurrence clause conditions."""


class MissingPolarity(KsError):
    """A variable appears in only one polarity; the vector gadget needs both."""


class NotSatisfying(KsError):
    """Assignment does not NAE-satisfy the formula."""


class LayoutMismatch(KsError):
    """Instance does not match the reduction layout it is paired with."""


class InternalInvariantError(KsError):
    """A structural guarantee the construction asserts was violated (bug)."""
