"""Numerical laboratory for a magnetic Schrodinger operator on a parabolic channel.

The Hamiltonian is

    H = -d_y^2 + (-i d_x + B y)^2 + omega^2 y^2 + W(x, y)

with magnetic field B >= 0, confinement omega > 0 and a bounded potential W.
The subpackages cover the Bloch fiber decomposition for 2*pi-periodic W
(:mod:`fiber`, :mod:`bands`), the decoupled one-dimensional periodic operators
(:mod:`hill`), the classical guiding-center dynamics (:mod:`classical`),
positive-commutator transport certificates (:mod:`mourre`) and a symbolic
calculus for quadratic observables (:mod:`quadratic`).
"""

from .channel import (
    ChannelParams,
    GaussianBumpPotential,
    GaussianProfile,
    GridSampledPotential,
    PolynomialProfile,
    Potential,
    PotentialBounds,
    SeparableFourierPotential,
    ZeroPotential,
    derive_params,
    potential_from_dict,
)
from .hermite import ProjectedPotential, project_potential
from .fiber import (
    EigensolverError,
    ResolventBoundCheck,
    assemble_fiber,
    complex_theta_resolvent_bound,
    eigenvalues_fiber,
)
from .bands import (
    BandStructure,
    GapPersistenceReport,
    GapReport,
    compute_bands,
    detect_gaps,
    gap_persistence_sweep,
)
from .hill import (
    HillBands,
    fd_hill_eigenvalues,
    fd_hill_richardson,
    h00_gaps,
    hill_bands,
    hill_matrix,
    hill_spectrum,
)
from .classical import (
    ClassicalState,
    Trajectory,
    closed_form_trajectory,
    integrate,
    mourre_observable,
)
from .mourre import (
    AppendixReport,
    MourreReport,
    ScalingSweepReport,
    appendix_norm_checks,
    condition_one_threshold,
    evaluate_certificate,
    resolvent_constant,
    scaling_sweep,
    transverse_quadratic_eigenvalues,
)
from .quadratic import (
    NoGoReport,
    QuadraticObservable,
    commutator_iA,
    conjugate_observable,
    gen_nogo_scan,
    h0_observable,
    poisson_bracket,
)

__version__ = "0.1.0"
