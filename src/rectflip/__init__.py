"""Diagonal rectangulations, their permutation fibers, and flip graphs."""

from .bijection import (
    baxter_of,
    block_deletion_word,
    fiber,
    rightmost_of,
    twisted_baxter_of,
)
from .flipgraph import (
    FlipGraph,
    VerificationReport,
    build,
    graph_json,
    metrics,
    simple_flip_components,
    verify_characterization,
    verify_counts,
    verify_inversion,
    verify_theorem_lr,
    verify_theorem_main,
)
from .flips import (
    EdgeUnflippable,
    FlipClass,
    FlipKind,
    classify_edge,
    flip,
    law_reading_edges,
    neighbors,
)
from .order import drec_covers, inversion_mask
from .permutation import (
    BAXTER,
    CLASSES_BY_NAME,
    RIGHTMOST,
    S_CLASS,
    SEPARABLE,
    TWISTED_BAXTER,
    PatternClass,
    VincularPattern,
    avoids_class,
    consecutive_value_swap,
    contains_vincular,
    enumerate_avoiders,
    format_permutation,
    parse_permutation,
)
from .rectangulation import (
    Edge,
    GridRectangulation,
    NotDiagonalError,
    Rect,
    canonicalize,
    diagonal_obstruction,
    reflect_rows,
    rho,
)

__version__ = "0.1.0"
