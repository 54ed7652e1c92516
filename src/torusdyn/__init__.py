"""Computable rotation theory on the torus: lifts, deviations, skew-products,
invariant-region saturation and constructive circle factors."""

__version__ = "0.1.0"

from .circle import (CircleLift, DenjoyGapTable, build_denjoy,
                     denjoy_semiconjugacy, geometric_gap_schedule,
                     rotation_number)
from .torus import (ComposedMap, DehnTwist, DiskPush, RigidTranslation,
                    SuspensionMap, TorusMapSpec, normalize_isotopy_class)
from .rotation import (DeviationProfile, RotationCloud, deviation_profile,
                       estimate_rotation_set, horizontal_spread,
                       proximality_scan, recurrence_probe,
                       vertical_rotation_number)
from .skew import (CentralizedSkew, GridGeometry, GridMask, SkewState,
                   build_centralized, check_closed_form, check_commutation,
                   fiber_complement_components, gamma_flow, geometry_for,
                   vertical_orbit_bound)
from .factor import (ContinuumApprox, FactorMap, TauRegion, build_tau,
                     continuum_Cs, evaluate_h, heights, lower_component,
                     project_to_torus_factor, verify_equivariance)
from .gallery import (ObstructionExample, SurgeryGeometry, SuspensionSpec,
                      example_fully_essential, example_unbounded_inessential,
                      no_gap_window, surgery_geometry, suspension_map)
