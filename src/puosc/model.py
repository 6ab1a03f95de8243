"""Model parameters, phase-space states, interaction potentials and vector
fields on Python floats.

These are the types a coupling scan needs, so this module imports no numpy:
a scan process runs on them alone.  core re-exports every name, and the
array views (a state's as_array, a field's linear part, flow and jacobian)
import numpy when they are first called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, ClassVar, Optional

from .errors import (
    ChartMismatchError,
    DegenerateFrequenciesError,
    PreconditionViolatedError,
)

JET = "jet"
OSTRO = "ostrogradsky"


def _core(fn):
    """fn, naming core as its module: core re-exports and documents model's
    functions, as numpy's set_module names a function's public module, so
    tools that group functions by module (the benchmark's per-layer tracer)
    count them in core.  Classes keep model, where inspect finds their
    source."""
    fn.__module__ = "puosc.core"
    return fn


@dataclass(frozen=True)
class PUParams:
    """Frequencies (omega1, omega2) with the derived alpha, beta."""

    omega1: float
    omega2: float
    alpha: float
    beta: float


@_core
def make_params(omega1: float, omega2: float) -> PUParams:
    """Validate frequencies and derive alpha = w1^2 + w2^2, beta = w1^2 w2^2.

    Raises DegenerateFrequenciesError unless 0 < omega1 != omega2; equal
    frequencies collapse the two-mode solution and the mode-projection
    formulas divide by w1^2 - w2^2.  Raises OverflowError, naming the
    quantity, when alpha or beta is not finite in floating point, and
    ArithmeticError when beta underflows to 0 (the structure divides by it).
    """
    w1, w2 = float(omega1), float(omega2)
    if not (math.isfinite(w1) and math.isfinite(w2)):
        raise DegenerateFrequenciesError("frequencies must be finite")
    if w1 <= 0.0 or w2 <= 0.0:
        raise DegenerateFrequenciesError("frequencies must be positive")
    if w1 == w2:
        raise DegenerateFrequenciesError("frequencies must be distinct")
    alpha = w1 * w1 + w2 * w2
    if not math.isfinite(alpha):
        raise OverflowError("alpha = omega1^2 + omega2^2 is not finite")
    try:        # w1 w2 <= alpha / 2 is finite; a float power raises
        beta = (w1 * w2) ** 2
    except OverflowError:
        raise OverflowError("beta = (omega1 omega2)^2 is not finite") from None
    if beta == 0.0:     # also when alpha is 0, as alpha >= 2 sqrt(beta)
        raise ArithmeticError("beta = (omega1 omega2)^2 underflows to 0")
    return PUParams(w1, w2, alpha, beta)


def _finite(values) -> bool:
    """Whether every value is a finite number; a value float() cannot read
    raises, as numpy's conversion to a float array does."""
    return all(math.isfinite(float(v)) for v in values)


@dataclass(frozen=True)
class JetState:
    """Point of the jet chart (q, qd, qdd, qddd)."""

    chart: ClassVar[str] = JET
    q: float
    qd: float
    qdd: float
    qddd: float

    def __post_init__(self):
        if not _finite((self.q, self.qd, self.qdd, self.qddd)):
            raise PreconditionViolatedError("jet state must be finite")

    def as_array(self):
        import numpy as np
        return np.array([self.q, self.qd, self.qdd, self.qddd], dtype=float)

    @classmethod
    def from_array(cls, z) -> "JetState":
        import numpy as np
        q, qd, qdd, qddd = np.asarray(z, dtype=float)
        return cls(q, qd, qdd, qddd)


@dataclass(frozen=True)
class OstroState:
    """Point of the momentum chart (x1, x2, p1, p2)."""

    chart: ClassVar[str] = OSTRO
    x1: float
    x2: float
    p1: float
    p2: float

    def __post_init__(self):
        if not _finite((self.x1, self.x2, self.p1, self.p2)):
            raise PreconditionViolatedError("momentum state must be finite")

    def as_array(self):
        import numpy as np
        return np.array([self.x1, self.x2, self.p1, self.p2], dtype=float)


@_core
def jet_to_ostro(params: PUParams, z: JetState) -> OstroState:
    """x1 = q, x2 = qd, p1 = -alpha*qd - qddd, p2 = qdd."""
    return OstroState(z.q, z.qd, -params.alpha * z.qd - z.qddd, z.qdd)


@_core
def ostro_to_jet(params: PUParams, s: OstroState) -> JetState:
    """Exact inverse of jet_to_ostro."""
    return JetState(s.x1, s.x2, s.p2, -params.alpha * s.x2 - s.p1)


def _coerce(z, chart: str):
    """z as an array; a JetState or OstroState must be a state of chart."""
    if isinstance(z, (JetState, OstroState)):
        if z.chart != chart:
            raise ChartMismatchError(
                f"state of chart {z.chart!r} given where chart {chart!r} "
                "is needed")
        return z.as_array()
    import numpy as np
    return np.asarray(z, dtype=float)


@dataclass(frozen=True)
class Potential:
    """Interaction potential W with its first two derivatives."""

    w: Callable[[float], float]
    w_prime: Callable[[float], float]
    w_second: Callable[[float], float]
    label: str


def _flow_entries(a, b):
    """The jet-chart flow matrix as a table in a = alpha and b = beta (see
    core: each structure matrix is written once, as such a table)."""
    return ((0.0, 1.0, 0.0, 0.0),
            (0.0, 0.0, 1.0, 0.0),
            (0.0, 0.0, 0.0, 1.0),
            (-b, 0.0, -a, 0.0))


class VectorField:
    """Flow z -> linear @ z, plus an optional interaction potential W.

    The interaction contributes -W'(q) to the qddd component and -W''(q) to
    entry (3, 0) of the flow Jacobian; H1 - W(q) is conserved.  The field is
    jet-chart: flow and jacobian take an array or a JetState.

    The linear part is kept as `entries`, its 4x4 table of floats; `linear`
    is the same table as a read-only array, built when first read.  Fields
    are immutable.
    """

    def __init__(self, linear, potential: Optional[Potential] = None):
        try:
            entries = tuple(tuple(float(x) for x in row) for row in linear)
        except TypeError:       # an entry that is not a scalar
            entries = ()
        if len(entries) != 4 or any(len(row) != 4 for row in entries):
            raise ValueError("linear part must be 4x4")
        vars(self).update(entries=entries, potential=potential)

    def __setattr__(self, name, value):
        raise AttributeError(f"VectorField is immutable: cannot set {name!r}")

    @cached_property
    def linear(self):
        import numpy as np
        A = np.array(self.entries)
        A.setflags(write=False)
        return A

    def flow(self, z):
        v = _coerce(z, JET)
        dz = self.linear @ v
        if self.potential is not None:
            dz[3] -= self.potential.w_prime(v[0])
        return dz

    def jacobian(self, z):
        """d(flow)/dz at z; the interaction only enters entry (3, 0)."""
        import numpy as np
        v = _coerce(z, JET)
        D = np.array(self.linear)
        if self.potential is not None:
            D[3, 0] -= self.potential.w_second(v[0])
        return D


@_core
def free_vector_field(params: PUParams) -> VectorField:
    """Free flow qdot = qd, ..., qdddot = -beta*q - alpha*qdd."""
    return VectorField(_flow_entries(params.alpha, params.beta))
