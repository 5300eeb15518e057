"""Spectral toolkit for a quantum particle on a circle in the purely
imaginary step potential i*Z*sign(x): real spectrum, small-coupling series,
symmetry-breaking couplings, complex branches, and a first-principles
boundary-matrix oracle."""

__version__ = "1.0.0"

from .secular import (
    SecularBranch,
    SpectralPoint,
    secular_s,
    secular_t,
)
from .spectrum import (
    SeriesCoefficients,
    SpectrumRequest,
    fit_series_numeric,
    perturbative_energy,
    refine_root,
    scan_roots,
    series_coefficients,
)
from .transition import (
    BrokenParams,
    ComplexEnergy,
    CriticalPoint,
    broken_secular,
    continue_in_Z,
    critical_sequence,
    find_double_root,
    solve_broken,
)
from .oracle import (
    ResidualReport,
    WaveSolution,
    boundary_determinant,
    boundary_matrix,
    nullspace_solution,
    pt_norm,
    pt_symmetry_check,
    residual_check,
)

__all__ = [
    "__version__",
    "SecularBranch",
    "SpectralPoint",
    "secular_s",
    "secular_t",
    "SeriesCoefficients",
    "SpectrumRequest",
    "fit_series_numeric",
    "perturbative_energy",
    "refine_root",
    "scan_roots",
    "series_coefficients",
    "BrokenParams",
    "ComplexEnergy",
    "CriticalPoint",
    "broken_secular",
    "continue_in_Z",
    "critical_sequence",
    "find_double_root",
    "solve_broken",
    "ResidualReport",
    "WaveSolution",
    "boundary_determinant",
    "boundary_matrix",
    "nullspace_solution",
    "pt_norm",
    "pt_symmetry_check",
    "residual_check",
]
