"""Declared tolerances and default workloads for every shipped check.

Single source of truth: the command-line experiments and the acceptance test
suite both read these values, so a tolerance can never drift between what is
promised and what is tested. Names group by check number C1..C13. Every work
budget here is enforced by raising WorkRefusedError.
"""

from __future__ import annotations

from fractions import Fraction


class WorkRefusedError(RuntimeError):
    """Work a budget below cannot afford: stage is the refusing function's
    dotted name, predicted the quantity it counted against limit, and reached
    the simulated time a mid-run guard tripped at (None: refused before any
    draw)."""

    def __init__(self, message: str, stage: str, quantity: str, predicted: float,
                 limit: float, reached: float | None = None):
        super().__init__(message)
        self.stage = stage
        self.quantity = quantity
        self.predicted = predicted
        self.limit = limit
        self.reached = reached


# C1: rate-function certification
RATE_QUERIES = 100
RATE_VALUE_TOL = 1e-6
RATE_RESIDUAL_TOL = 1e-9
# Floor on 1 - a for rates point queries: the CLI refuses --a above 1 minus
# it. Near a = 1 the level family's grid objective forms the distance of its
# maximizer from the window's edge as a difference of numbers near 1, so
# rounding swamps the gap (the particle family's grid runs over the square
# root of that distance and keeps it exact). Worst certification gap over
# eta in [0.1, 0.999]: 1.8e-8 at 1 - a = 1e-4, 6.1e-8 at 5e-5, 4.3e-7 at
# 2e-5, then 1.8e-6 at 1e-5, past RATE_VALUE_TOL, and 1.7e-4 at 1e-6. The
# sweep keeps 1 - a >= 1e-4.
RATE_MIN_ONE_MINUS_A = 1e-4
# Largest speed x of a rates point query. The supremum's value is about
# -x^2/(2(1-a)), so its rounding alone grows like x^2 against the absolute
# RATE_VALUE_TOL: at 1 - a = 1e-4 the worst certification gap reads 1e-10
# over x in [0.1, 3], 4.5e-8 over [3, 100] and up to 1.8e-7 at x = 300; it
# passes the tolerance between x = 600 and 800.
RATE_MAX_X = 100.0
# rates: the two closed-form anchor points, and the identity
# rate_j(a, eta) = 2 rate_i(a, sqrt(2) eta) over the sweep, both in floating
# point arithmetic on closed forms
RATE_ANCHOR_TOL = 1e-12
RATE_STEEPNESS_TOL = 1e-12

# C2: branching-bound sweep
GW_SWEEP_REPLICAS = 10_000
GW_SIGMA = 2.0
# replicas per Galton-Watson block (one stream and one draw per generation
# each), so a sweep's memory stays bounded at any replica count
GW_BLOCK = 1000
# A replica whose count passes this is censored: it draws no more and counts
# as an exceedance.
GW_POPULATION_CAP = 10**12
# Largest state space, initial * prod of the laws' largest offspring counts
# + 1, that exact_exceedance convolves over.
EXACT_STATE_LIMIT = 200_000

# C3: first moments of the branching diffusion
BBM_MEAN_T = 5.0
BBM_MEAN_REPLICAS = 10_000
BBM_COUNT_T = 6.0
BBM_COUNT_XS = (0.3, 0.8)
BBM_COUNT_REPLICAS = 10_000
MEAN_SIGMA = 3.0

# C4: growth exponent of level counts
BIGGINS_T = 12.0
BIGGINS_X = 0.5
BIGGINS_REPLICAS = 200
BIGGINS_TOL = 0.10

# C5: decay of the maximum's tail
MAX_TAIL_X = 1.6
MAX_TAIL_TS = (4.0, 6.0, 8.0)
MAX_TAIL_REPLICAS = 20_000
MAX_TAIL_TOL = 0.25

# C4, C5: the exact Fisher-KPP route (bbm/kpp.py). The Monte Carlo points
# above are checked against the exact law at their own horizons; the limit
# bands are checked on the exact rates at the long horizons below.
#
# Long horizons: the first multiple of the Monte Carlo horizon at which the
# leading finite-horizon correction, the Gaussian-tail prefactor
# log(x sqrt(2 pi t)) / t of E N(t, xt) ~ e^{t(1 - x^2/2)} / (x sqrt(2 pi t)),
# falls below half the band. C4 (x=0.5, half band 0.05): 0.122, 0.076,
# 0.056, 0.045 at t = 12, 24, 36, 48. C5 (x=1.6, half band 0.125): 0.173,
# 0.124 at t = 16, 24.
KPP_BIGGINS_T = 48.0
KPP_MAX_TAIL_T = 24.0
# (dy, dt) of the coarse and the fine grid; the fine one halves both steps.
# The steepest profile solved is C5's tail, log-slope x = 1.6 in y. On it the
# coarse grid errs in the rate by the dispersion of the discrete Laplacian,
# x^4 dy^2 / 24 = 2.7e-3, plus the Crank-Nicolson lag (x^2/2)^3 dt^2 / 12 =
# 4.4e-4; second order, the fine grid errs a quarter of that, so the
# predicted change between them is 2.4e-3, under KPP_GRID_TOL.
KPP_GRIDS = ((0.1, 0.05), (0.05, 0.025))
# A twentieth of BIGGINS_TOL, the narrower band. A second-order change below
# it puts the fine-grid rate within KPP_GRID_TOL / 3 of the grid limit.
KPP_GRID_TOL = 0.005
# Largest share of E[log N; N > 0] each cut of the Frullani quadrature may
# drop, and of the counted particles each wall of the y grid may misplace.
# It moves a log-probability or a mean log-count by about this much, so a
# rate at t >= 1 by under 3e-6, three orders below KPP_GRID_TOL.
KPP_TRUNCATION = 1e-6
# Shortest bbm-exponents horizon: its Monte Carlo mean log-count at t is
# checked against the exact rate at t. Over the grids above, |fine - coarse|
# of log_count_rate(t, 0.5) is 4.3e-2 at t = 0.01 and 5.8e-3 at t = 0.1,
# above KPP_GRID_TOL, then 2.0e-3 at t = 0.3 and 2.4e-4 at t = 1. Far below
# dy^2 both grids agree on a wrong value, 0.347 at t = 1e-5 against the
# small-t limit of about 0.473, so the grid check cannot stand in for this
# floor. KPP_TRUNCATION's error analysis also assumes t >= 1.
KPP_MIN_T = 1.0

# C6: capped-system dominance
NBBM_T = 6.0
NBBM_CAPS = (10, 100)
NBBM_REPLICAS = 1_000
NBBM_SNAPSHOTS = (1.5, 3.0, 4.5, 6.0)
# Largest expected number of chronological branch events, replicas * (e^t - 1),
# one dominance sweep may run. The engine ran 1.8-1.9e5 events/s on a free
# run at t = 10, so this is about 9 min; the default sweep expects 4e5 per cap.
NBBM_EVENTS_MAX = 10**8

# C7: field sampler vs covariance oracle
COV_GRID_N = 32
COV_SAMPLES = 20_000
COV_PAIRS = 200
COV_SIGMA = 4.0
# Largest gff-cov grid side. Its dense draw holds every sample's (N-2)^2
# normals at once, so at N = 64 the field budget admits about 34.9k samples.
DENSE_GREEN_N_MAX = 64
# fields per replica block; each block draws from its own stream
COV_BLOCK = 100
KS_LEVEL = 0.01

# C8: log growth of the on-diagonal Green's function
GREEN_SIZES = (32, 64, 128, 256)
GREEN_SLOPE_REL_TOL = 0.10

# C9: level-set exponents
DAVIAUD_ETA = 0.3
DAVIAUD_SIZES = (64, 128, 256, 512)
DAVIAUD_REPLICAS = {64: 2000, 128: 1500, 256: 1000, 512: 600}
DAVIAUD_MEAN_N = 128
DAVIAUD_TOL = 0.30

# C10: partition geometry
GEOMETRY_N = 64
COVER_CASES = ((64, 1), (64, 2), (256, 1), (256, 2))

# C11: harmonic decomposition
DECOMP_N = 256
DECOMP_SAMPLES = 800
DECOMP_VAR_REL_TOL = 0.25
DECOMP_BLOCK = 50
# standard errors allowed in the increment variance against its exact value,
# and in the residual's correlation with the boundary values
DECOMP_SIGMA = 4.0
MEAN_VALUE_TOL = 1e-10

# C10, C11: a partition keeps the children at least this fraction of their
# parent's side from its boundary, the largest under which the four-translate
# cover and the 4^-L counting bound hold
PARTITION_MARGIN = Fraction(1, 4)
# C10, C11: depth delta of the multiscale schedule, which has
# L = ceil((log N)^(1 - delta)) levels
SCHEDULE_DELTA = 0.9
# Largest grid side cover-check and decompose-var accept. Building the nested
# partitions grows steeply with N: on a 2-vCPU host run_cover_check took 3.7 s
# at N = 2048 and 22 s at 4096, and decompose-var at 2048 with its default
# 800 samples 115 s and 611 MB.
PARTITION_GRID_N_MAX = 2048

# C12: coarse exceedance tail
COARSE_ZETA = 0.0
COARSE_B = 1.05
COARSE_SIZES = (64, 128)
COARSE_REPLICAS = 100_000
COARSE_TOL = 0.15
# Largest coarse-tail --grid-n. At the default FIELD_BYTES_MAX the Green
# diagonal behind the rounding bound already refuses every N >= 5184 at
# zeta = 0, and one float64 field every N >= 5795 at zeta > 0, so the cap
# loses no run; below it every byte count and N^(-e) is a float.
COARSE_GRID_N_MAX = 8192

# Largest --replicas of every subcommand, 10x COARSE_REPLICAS, the largest
# acceptance count. At one replica a block mc.map_blocks keeps about 190 B a
# block: its peak RSS rose 187 B a block over 2e5 blocks and 198 B over 1e6,
# so about 200 MB at the cap.
REPLICAS_MAX = 10**6

# Field sampling (C7, C9, C11, C12). The spectral sampler takes the sine-matrix
# product route up to this N (the largest shipped size; its measured crossover
# with scipy.fft.dstn is near N = 1024) and dstn above it.
SINE_MATRIX_MAX_N = 512
# Replica blocks of vectorized field tasks hold about this many sites:
# max(1, FIELD_BLOCK_SITES // N**2) fields, so 64 at N = 64 and 1 at N = 512.
FIELD_BLOCK_SITES = 512**2
# Largest working set one field request (or one Green diagonal) may allocate.
FIELD_BYTES_MAX = 2**30
# Float32 error of a field from the threshold route, sample_interiors_float32:
# max |float32 - float64| against the float64 transform of the same float32
# normals, over four replica blocks, measured 3.9e-6 at N = 64, 5.7e-6 at
# N = 128, 9.9e-6 at N = 256 and 1.1e-5 at N = 512 (the dstn route above the
# cut: about 2.1e-6 at N = 768 and 1024). Set near 9x the largest.
# It feeds only the reported rounding_flip_bound; no check gates on it.
FIELD_FLOAT32_DELTA = 1e-4

# Branching diffusion (C3-C5). Replica blocks of the counting estimators hold
# about this many particles: max(1, BBM_BLOCK_PARTICLES // ceil(e^t))
# replicas, so 1191 at t = 4, 21 at t = 8 and 1 at t = 12.
BBM_BLOCK_PARTICLES = 2**16
# Population guard of both engines: a run, or a block of the wave sweep,
# that would hold more particles is refused with WorkRefusedError, as is a
# horizon at which some replica is expected to.
BBM_PARTICLE_CAP = 10**7

# C13: determinism. The rerun sees this many usable CPUs, so the GIL-free
# maps (the threshold maps and decompose-var's box draws) run on this many
# threads.
DETERMINISM_CONCURRENCY = 4

CHECK_NAMES = {
    1: "rate-function certification",
    2: "branching bound never violated",
    3: "branching first moments",
    4: "level-count growth exponent",
    5: "maximum tail decay",
    6: "capped-system dominance",
    7: "field sampler exactness",
    8: "Green diagonal growth",
    9: "level-set exponent trend",
    10: "partition geometry",
    11: "harmonic decomposition variance",
    12: "coarse tail probe",
    13: "deterministic reports",
}
