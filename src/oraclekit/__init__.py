"""Checked implementations of classic sequence and sparse-matrix tasks.

Each algorithm ships with an independent oracle and an executable
checker for its defining properties; the propcheck harness runs those
properties over deterministic random cases, and the parallel module
verifies the concurrent multiplication both with real threads and by
exhaustive interleaving exploration.
"""

from .ansv import AnsvReport, NeighborArray, check_ansv, left_neighbors, oracle_neighbors, right_neighbors
from .cartesian import CartesianTree, TreeReport, build_tree, check_tree, in_order, oracle_tree
from .errors import (
    BoundsError,
    ConfigError,
    DimensionError,
    DuplicateValuesError,
    MalformedTreeError,
    ModelTooLargeError,
    OracleKitError,
    OrderError,
    UnsortedInputError,
    ZeroEntryError,
)
from .ghcsort import ghc_sort, merge, multiset_equal, oracle_merge
from .instrument import Tally
from .monotonic import CutReport, check_cutpoints, compute_cutpoints, is_monotonic, oracle_cutpoints
from .parallel import (
    AllocationPolicy,
    ExplorationReport,
    TransitionSystem,
    build_model,
    explore,
    multiply_parallel,
)
from .propcheck import CaseRng, GenConfig, PropertyResult, gen_coo, gen_sequence, run_suite
from .properties import PROPERTY_NAMES, REGISTRY
from .spmv import (
    CooMatrix,
    DenseMatrix,
    coo_from_text,
    coo_from_triplets,
    coo_to_text,
    dense_from_rows,
    from_dense,
    multiply_seq,
    oracle_multiply_dense,
    to_dense,
)

__version__ = "0.1.0"
