"""Global numerical policy.

Two tolerances cover the library, each relative with no floor: an identity
exact in rational arithmetic holds to EPS_ALGEBRA of its own terms
(core._vanishes, read by verify_map and core._identity); EPS_SINGULAR rules
every closed-form gate and, times sigma_max, every rank (core._negligible).
"""

EPS_ALGEBRA = 1e-12
EPS_SINGULAR = 1e-10

# Default seed for every stochastic draw (sample points, random parameter
# sets); all randomness in the library flows from one seed per call.
DEFAULT_SEED = 20260808

# Integrator defaults.
DEFAULT_TOL = 1e-10
DEFAULT_SAMPLE_RATE = 0.1
DEFAULT_T_END = 200.0

# Escape radius default is 1e3 * max(1, |z0|).
ESCAPE_RADIUS_FACTOR = 1e3

# Invariant suite: coupling of its interacting check, frequency pairs drawn.
SUITE_LAMBDA = 0.1
SUITE_DRAWS = 100

# Threshold scan defaults.
SCAN_GRID_POINTS = 32
SCAN_BISECT_ITERS = 40
