"""Spectral simulator and verification harness for incompressible tangential
surface flow with variable viscosity on closed surfaces.

The solver runs in the divergence-free toroidal harmonic basis on the sphere,
where the degree-1 block is exactly the space of Killing fields (rigid
rotations); the torus is supported for static analysis.  The package tracks
the quantitative long-time laws of the flow: the exact Killing-component
dynamics, exponential non-Killing decay with rate set by the Korn constant,
the discrete energy ledger, continuous dependence on data, and the
backward-uniqueness quotient.
"""

__version__ = "0.1.0"

from .errors import (CheckpointError, ConfigError, ConsistencyError,
                     DivergenceError, GeometryError, GridMismatchError,
                     ParameterError)
from .geometry import (SurfaceGrid, TangentialField, ViscosityField,
                       build_sphere_grid, build_torus_grid, covariant_derivative,
                       dealias_rule, h1_norm, l2_inner, strain_norm)
from .harmonics import (SpectralState, SphereTransform, mode_index,
                        random_band_limited)
from .killing import KillingBasis, killing_basis, korn_constant
from .operators import StokesForm, assemble_stokes, convective_term
from .forcing import ForcingSpec, apply_forcing, make_catalog_forcing
from .timestepper import (SimState, StepperConfig, run, run_batch, step_imex,
                          step_rk4)
from .diagnostics import (check_killing_identity, check_monotonicity,
                          continuous_dependence_ratio, fit_decay_rate,
                          lambda_series, record)
from .harness import (CheckpointMeta, RunReport, Scenario, execute_scenario,
                      load_checkpoint, load_config, parse_config_text,
                      run_ensemble, save_checkpoint)
from .scenarios import get_scenario, list_scenarios, run_scenario
