"""Monochromatic odd cycles in edge-coloured complete graphs.

Library layout:

- :mod:`oddcycle.graph`      graphs, BFS layers, bipartiteness, odd girth
- :mod:`oddcycle.colouring`  q-edge-colourings of K_n, generators and file I/O
- :mod:`oddcycle.peeling`    ball-peeling decomposition and independent sets
- :mod:`oddcycle.shortening` odd-cycle shortening against low-radius components
- :mod:`oddcycle.selector`   derandomized complement selection over set pairs
- :mod:`oddcycle.pipeline`   the end-to-end searches with certified outputs
- :mod:`oddcycle.certify`    independent verifiers for every certificate type
- :mod:`oddcycle.analysis`   exact small cases, annealing search, experiments
"""

from .builders import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    path_graph,
    petersen_graph,
    random_bipartite_graph,
    random_graph,
)
from .certify import Violation, ViolationKind, verify_mono_odd_cycle, verify_peel, verify_selector
from .colouring import (
    EdgeColouring,
    binary_colouring,
    colour_class,
    colouring_from_classes,
    hamilton_colouring,
    product_colouring,
    random_colouring,
    read_colouring,
    write_colouring,
)
from .errors import (
    InputError,
    InternalInconsistency,
    NoMonochromaticOddCycle,
    ParseError,
    PipelineAssertError,
    RetryExhausted,
)
from .graph import (
    Bipartition,
    Graph,
    LayeredBall,
    OddClosedWalk,
    OddCycleCertificate,
    bfs_layers,
    check_bipartite,
    components,
    odd_cycle_from_walk,
    odd_girth,
    shortest_path_within,
)
from .peeling import (
    PeelComponent,
    PeelDecomposition,
    PeelParams,
    ShortCycle,
    independent_set_via_peel,
    peel,
)
from .pipeline import (
    MonoOddCycle,
    PipelineParams,
    PipelineTrace,
    find_mono_odd_cycle,
    min_colour_odd_cycle,
    proposition_pipeline,
    reduce_bipartite_colour,
    signatures,
)
from .selector import SelectorInstance, SelectorResult, select_complement
from .shortening import shorten_bound, shorten_cycle
from .analysis import anneal_search, exhaustive_L, experiment_table, rows_to_csv

__version__ = "0.1.0"
