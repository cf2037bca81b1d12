"""cocyred: cocyclic bases over Z2 by cohomological reduction, and search
for planar and higher-dimensional Hadamard matrices in their span."""

from .gf2 import (SnfResult, gf2_rank, greedy_independent_rows, in_row_space,
                  smith_normal_form_gf2)
from .groups import (Family, FiniteGroup, GroupSpec, build_group,
                     parse_group_spec)
from .model import (CohModel, ModelSizeError, ModelUnavailableError,
                    builtin_model)
from .reduction import (BruteForceResult, Cochain, CochainBasis,
                        OracleSizeError, ReductionOutput, bar_codifferential,
                        brute_force_cohomology, coboundary_basis,
                        coboundary_generator, full_cocycle_basis)
from .search import (SearchReport, SearchSpace, SpanTooLargeError, Witness,
                     enumerate_span, tensor_of_combination)
from .tensor import (SignTensor, all_ones, alternating_back_negacyclic,
                     alternating_columns, alternating_forward_block,
                     back_negacyclic, forward_negacyclic,
                     half_ones_half_alternating, is_hadamard_2d,
                     is_improper_hadamard, is_proper_hadamard, kronecker,
                     section, tensor_from_cochain, tensor_to_json,
                     tensor_to_text)
from .verify import CheckResult, run_verify

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
