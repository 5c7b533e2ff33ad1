"""Finite element differential forms on cubic meshes.

Exact-arithmetic reference-space algebra (forms, spaces, mappings, degrees
of freedom) plus a numeric lab measuring L2 approximation rates of mapped
spaces on parallelotope and curvilinear cubic meshes.  Each mesh family is
a rule placing the points of the lattice {0..N}^n; its cells are the
multilinear maps through their lattice corners.
"""

from .forms import (
    DiffForm,
    Face,
    Polynomial,
    enumerate_sigma,
    evaluate,
    exterior_derivative,
    integrate_unit_box,
    l2_inner_box,
    l2_inner_reference,
    trace,
    wedge,
)
from .spaces import (
    FormSpace,
    RatePrediction,
    build_P,
    build_Qminus,
    build_SrLambda1_2d,
    build_serendipity,
    contains,
    dim_Qminus,
    predict_rates,
    superlinear_degree,
)
from .mapping import (
    JacobianPoly,
    MultilinearMap,
    check_diffeo,
    jacobian,
    map_from_vertices,
    pullback_polynomial,
)
from .dofs import (
    DofFunctional,
    DofSet,
    apply_dof,
    build_dofs,
    dof_count_by_faces,
    dual_basis,
    enumerate_faces,
    unisolvence_matrix,
)
from .meshlab import (
    ConvergenceReport,
    Mesh,
    NumericalError,
    QuadratureRule,
    TargetForm,
    build_mesh,
    convergence_study,
    element_l2_error,
    gauss_rule,
    mesh_parallelotope,
    mesh_trapezoidal,
    mesh_trilinear_3d,
    mesh_uniform,
    target_from_form,
    target_trig,
)

__version__ = "0.1.0"
