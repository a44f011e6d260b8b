"""knotforms: exact algebraic invariants of odd-dimensional knots and links.

The calculus starts from a Seifert matrix (a square integer matrix of
linking numbers together with the middle dimension q) and computes, with
exact arithmetic throughout: intersection forms, open-book monodromy,
Alexander polynomials and knot-module presentations, Arf/KARL invariants,
algebraic-cobordism obstructions and bounded metaboliser searches, Seifert
matrices of Brieskorn-Pham singularity links, and the Bernoulli-number
orders of the groups of exotic spheres embeddable in codimension two.
"""

from .exact import (Matrix, ShapeError, SingularMatrixError, bernoulli, det,
                    inverse, kronecker, smith_normal_form)
from .laurent import (Laurent, NormalizationError, conway_normalize, cyclotomic,
                      elementary_divisors, factor_int_poly, render_poly)
from .seifert import (KnotModulePresentation, NonFiberedError, SeifertMatrix,
                      alexander_polynomial, characteristic_polynomial,
                      intersection_form, is_quasi_unipotent, knot_module,
                      monodromy)
from .quadratic import (DegenerateFormError, ParityError, QuadraticFormF2, arf,
                        is_even, karl, levine_congruence, levine_congruence_check,
                        signature, symplectic_basis_f2)
from .cobordism import (CobordanceVerdict, EpsForm, EpsFormError, Metaboliser,
                        MetaboliserSearch, algebraically_cobordant, eps_form_of,
                        fox_milnor, is_metaboliser, negate,
                        null_cobordance_obstructions, orthogonal_sum,
                        search_metaboliser)
from .invariants import Invariants
from .brieskorn import (BrieskornGerm, GermReport, brieskorn_seifert, germ_report,
                        pham_matrix, quadratic_suspension_seifert, sakamoto_product)
from .spheres import (BPClass, GroupVerdict, bp4k2_group, bp4k_order, bp_class,
                      embeddable_spheres_group, im_j_order)
from .links import (HandlePresentation, IsotopyVerdict, LinkingMatrix,
                    LinkingMatrixError, handle_data, links_isotopic,
                    validate_linking_matrix)
from .evendim import (ModuleStructure, TorsionPresentation,
                      derived_torsion_intersection, presented_module_structure,
                      torsion_symmetry_check, validate_presentation)
from .matrixfile import MatrixFileError, parse_matrix_file, serialize_matrix_file

__version__ = "0.1.0"
