"""mapforms: differential forms induced on discretized spaces of smooth maps.

A pair of forms, one on a flat target chart and one on a compact oriented
source manifold, induces a form on the space of maps between them by fiber
integration of the pulled-back wedge product.  This package discretizes the
whole construction (spectral grids on flat k-tori of any dimension, the
circle and the 2-torus among them, and a 4th-order interval with signed
boundary) and verifies its calculus: the derivation rule with and without
boundary terms, compatibility with both diffeomorphism actions, the induced
weak symplectic structures, momentum maps for three hamiltonian actions,
and their non-equivariance cocycles.

The induced-form operations live in :mod:`mapforms.mapspace`; plain
exterior algebra in :mod:`mapforms.forms`; grids and the spectral right
inverse of d in :mod:`mapforms.domains`; embedded-submanifold pairings in
:mod:`mapforms.grassmannian`; momentum maps and cocycles in
:mod:`mapforms.mechanics`.  ``mapforms verify`` runs the identity suites
from the command line.
"""

from .charts import (ChartMap, DimensionMismatch, VectorField, affine_field,
                     affine_map, as_field, constant_field,
                     field_from_callable, identity_map, rotation3)
from .domains import (NotExactError, ScalarField, SmoothnessWarning,
                      SourceDomain, circle, exact_divfree_field, interval,
                      make_domain, nodal_vector_field, projection_P,
                      right_inverse_b, torus, torus2)
from .forms import (DegreeError, Form, ScalarFunc, broadcast_rows,
                    coefficient_form, constant_form, coordinate_form,
                    exterior_derivative, fiber_integrate, form_scale,
                    form_sum, integrate, interior, lie_derivative,
                    lie_derivative_flow, product_map, pullback,
                    sample_difference, trig_scalar, volume_form, wedge,
                    zero_form)
from .grassmannian import (EmbeddedSubmanifold, EmbeddingError,
                           diffM_action_on_N, embed, mw_form, mw_gram_matrix,
                           tilda_eval)
from .mapspace import (MapPoint, MapSpaceForm, MapStack, MapTangent,
                       action_pullback_M, action_pullback_S, bar_map,
                       bar_map_direct, boundary_pullback, generator_M,
                       generator_S, hat_map, hat_pairing, hat_pairing_fiber,
                       map_from_function, map_space_d, map_space_interior,
                       map_space_lie, map_space_lie_flow, pullback_action,
                       pushforward_action)
from .mechanics import (AffineSubspace, BraneReport, ExactTwoForm,
                        HamiltonianAction, HamiltonianPair, HamiltonianSystem,
                        LiftedGAction, affine_subspace, brane_twist_check,
                        canonical_r2, cocycle_defining, cocycle_diffex,
                        cocycle_diffham, cocycle_jacobi_sum, diffex_action,
                        diffham_action, dual_pair_report, exact_two_form,
                        hamiltonian_of, lichnerowicz, lifted_action,
                        momentum_diffex, momentum_diffham,
                        momentum_identity_residual, momentum_lifted,
                        se2_action)
from .suites import SUITES, SuiteConfig, run_suite

__version__ = "0.1.0"
