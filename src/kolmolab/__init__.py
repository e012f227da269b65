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
"""

__version__ = "0.1.0"
