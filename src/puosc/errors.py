"""Exception types raised by the puosc library."""


class PuoscError(Exception):
    """Base class for all library errors."""


class DegenerateFrequenciesError(PuoscError):
    """Frequencies are non-positive or equal; the two-mode structure needs
    0 < omega1 != omega2."""


class ChartMismatchError(PuoscError):
    """Operation mixed objects living in different phase-space charts."""


class SingularBlendError(PuoscError):
    """Blend Hessian c1*S1 + c2*S2 is singular; no Poisson partner exists."""


class SingularHessianError(PuoscError):
    """Target Hamiltonian has a singular Hessian."""


class NotAntisymmetricError(PuoscError):
    """The solved tensor A*S^-1 is not antisymmetric, so no constant Poisson
    structure pairs with the target Hamiltonian to produce this flow."""

    def __init__(self, symmetric_norm: float):
        self.symmetric_norm = symmetric_norm
        super().__init__(
            f"candidate tensor has symmetric part of norm {symmetric_norm:.3e}"
        )


class InsufficientSamplesError(PuoscError):
    """Sample set cannot distinguish the interacting constraint from the free
    one (needs at least 3 points with distinct q)."""


class ComplexBranchError(PuoscError):
    """Square-root radicand is negative; the requested branch is complex."""


class DegenerateModelError(PuoscError):
    """Two-dimensional model has a vanishing kinetic coefficient where a
    finite one is required."""


class PreconditionViolatedError(PuoscError):
    """Family-specific free-parameter precondition violated."""


class NoSolutionError(PuoscError):
    """The embedding constraint system has no solution for these inputs."""


class SingularMapError(PuoscError):
    """The transform map is singular (a_y = 0, or x proportional to y);
    tensors cannot be pushed through it."""


class NotInSpanError(PuoscError):
    """Pulled-back Hamiltonian does not lie in span{H1, H2}; the map does not
    preserve the dynamics."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"fit residual {residual:.3e} above tolerance")


class SingularCoefficientError(PuoscError):
    """A coefficient denominator in the sum-of-squares form vanishes."""


class StepUnderflowError(PuoscError):
    """Adaptive integrator drove the step size below representable size."""

    def __init__(self, last_time: float):
        self.last_time = last_time
        super().__init__(f"step size underflow at t = {last_time!r}")


class ScanDegenerateError(PuoscError):
    """Threshold scan found no transition: every grid point was bounded, or
    every grid point escaped."""

    def __init__(self, kind: str, grid):
        assert kind in ("all-bounded", "all-unbounded")
        self.kind = kind
        self.grid = grid
        super().__init__(kind)
