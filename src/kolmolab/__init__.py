"""kolmolab: desk-scale numerical laboratory for coupled nonautonomous
Kolmogorov systems with unbounded coefficients.

Modules:
    dsl         coefficient expression language
    operators   operator specifications and example families
    grids       tensor grids, grid functions, gradients, interpolation
    evolve      finite-difference evolution operators on boxes
    audit       numerical hypothesis checks
    kernels     kernel-row approximation and tightness probes
    estimates   maximum principle, pointwise and gradient estimates
    semilinear  backward semilinear problem via mollified Picard scheme
    fbsde       forward SDE simulation, FBSDE identification, Girsanov
    game        minimax selection and Nash deviation tests
    runner      batch orchestration and the report writers

Importing the package defaults OPENBLAS_THREAD_TIMEOUT to 4 (see below).
"""

import os

# numpy's and scipy's OpenBLAS workers each spin ~0.1 s of CPU when idle,
# and no BLAS call here is large enough to be threaded.  OpenBLAS clamps the
# timeout to 4..30 and spins 2**value cycles: 4 parks them at once.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

__version__ = "0.1.0"
