"""perdec: exact periodic decompositions of integer-valued grid functions.

The package provides sparse Laurent polynomial arithmetic over the
integers, exact lattice/coset utilities, finite configuration
representations with the convolution action, constructive periodic
decompositions (transfer recurrences, annihilator rewriting, certificate
search, k-periodic pipelines), sparse fiber decompositions, and
translational tiling verification.  All arithmetic is exact.
"""

from .config import (FiberSum, LazyConfig, PeriodicConfig, PeriodicFiber,
                     Verdict, WindowConfig, add_views, apply_poly, box_points,
                     detect_period_multiple, is_annihilated,
                     make_fiber, period_lattice, rasterize)
from .decompose import (Bounds, Component, Decomposition, DifferenceProduct,
                        annihilator_from_periodizer, decompose_product,
                        k_periodic_decompose, reduce_annihilator,
                        search_difference_annihilator, select_periodizer,
                        solve_transfer, verify_transfer)
from .errors import (DimensionMismatch, EmptyRegionError, InconclusiveError,
                     LatticeError, OutOfDomainError, PerdecError,
                     PreconditionError, SchemaError, VerificationError)
from .laurent import (LaurentPoly, LineDescriptor, difference_poly,
                      line_direction, poly_product, support_in_subspace)
from .lattice import (CosetSystem, SubspaceBasis, hnf_reduce, hnf_rows,
                      lattice_intersection, primitive, rank_rational,
                      span_meets_trivially)
from .sparse import (SparsenessReport, check_sparseness,
                     fiber_closed_form_constant, fiber_extract, sparse_decompose,
                     sparse_full, sparse_split2, stabilized_translate_limit)
from .tiling import (Tile, cotiler_decompose, independent, tile_polynomial,
                     verify_cotiler)

__version__ = "0.1.0"
