"""Quantum correlation as nonlocal coherence under the best local frame.

The package quantifies correlation by classifying density-matrix elements
into diagonal, local-coherence and nonlocal-coherence positions and
minimizing the nonlocal magnitude sum over circuits of non-global
unitaries, subject to the local sum vanishing.  Closed forms for standard
state families, comparison measures (concurrence, EoF, negativity,
closed-form discord) and tensor-product-structure remapping round out the
toolkit; the ``consonance`` CLI exposes all of it.
"""

from .qstate import (DensityMatrix, PureState, ValidationError, Violation,
                     assert_valid, density_from_pure, hermitian_eigenvalues,
                     load_state, partial_trace, partial_transpose, save_state,
                     singular_values, tensor, validate)
from .coherence import (CoherenceClass, CoherenceProfile, classify,
                        local_coherence, nonlocal_sum, profile)
from .unitary import (CircuitLayer, LocalCircuit, Preset, UnitaryParams, apply,
                      build_unitary, params_for_unitary)
from .optimizer import (ConsonanceReport, OptimizerConfig, consonance,
                        oracle_consonance)
from .measures import (SchmidtDecomposition, concurrence_2x2,
                       consonance_pure_bipartite, discord_2x3,
                       discord_bell_like, discord_werner, eof_from_concurrence,
                       negativity, schmidt_decompose)
from .states import (TpsRelabeling, bell, bell_like, consonance_closed_form,
                     ghz, parse_factory_spec, permute_subsystems, psi_like,
                     pure_2x2, random_density, random_pure, regroup, tps_remap,
                     two_param_qubit_qutrit, w_state, werner, werner_f_prime)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
