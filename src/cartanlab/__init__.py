"""Numerical toolkit for transitive Lie algebroids carrying Cartan
connections on coordinate charts: certification of flatness and
compatibility, parallel transport and monodromy, geodesic completeness
probes, development into homogeneous models and atlas reconstruction."""

from .algebra import (AlgebraMap, LieAlgebra, MatrixRealization, Subalgebra,
                      TensorReport, bracket, exp_matrix, is_automorphism, log_matrix)
from .algebroid import (ActionAlgebroid, AffineCocycleEntry, AlgebroidChart,
                        GluedAlgebroid, Overlap, check_anchor_homomorphism,
                        check_cocycle, infinitesimalize, make_action_algebroid)
from .cartan import (cocurvature, curvature_conn, fiber_bracket_at, is_cartan,
                     is_flat)
from .development import (Coset, CoverSpec, HomogeneousModel,
                          check_equivariant_twist, develop_point,
                          equivariance_diagram_check, geometric_closure_probe,
                          induced_affine_map, path_independence_check,
                          reconstruct_atlas)
from .geometry import (Chart, SmoothField, TMConnection, lie_bracket_vf,
                       metric_by_name, scalar_form_fit)
from .models import (DualPair, RiemannianCartanChart, build_riemannian_cartan,
                     check_dual_pair, classify_constant_curvature, load_model,
                     local_lie_group_check, obstruction_form)
from .transport import (BasePath, GeodesicResult, GPath, completeness_probe,
                        geodesic, invariant_metric_check, isotropy_subalgebra,
                        line_path, monodromy, monodromy_compactness_probe)

__version__ = "0.1.0"
