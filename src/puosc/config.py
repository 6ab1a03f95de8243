"""Global numerical policy.

Two tolerances cover the whole library: identities that are exact in rational
arithmetic are asserted to EPS_ALGEBRA (relative), and determinant-style
singularity gates use EPS_SINGULAR.
"""

EPS_ALGEBRA = 1e-12
EPS_SINGULAR = 1e-10

# Relative singular-value cutoff for rank decisions (commutant and
# invariant-tensor null spaces).
SVD_RANK_CUTOFF = 1e-10

# Default seed for every stochastic draw (sample points, random parameter
# sets); all randomness in the library flows from one seed per call.
DEFAULT_SEED = 20260808

# Integrator defaults.
DEFAULT_TOL = 1e-10
DEFAULT_SAMPLE_RATE = 0.1
DEFAULT_T_END = 200.0

# Escape radius default is 1e3 * max(1, |z0|).
ESCAPE_RADIUS_FACTOR = 1e3

# Coupling of the invariant suite's interacting check.
SUITE_LAMBDA = 0.1

# Threshold scan defaults.
SCAN_GRID_POINTS = 32
SCAN_BISECT_ITERS = 40
