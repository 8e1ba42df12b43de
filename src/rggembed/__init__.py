"""Embedding bounded-degree spanning trees into random geometric graphs.

The package has one module per stage of the pipeline:

- :mod:`rggembed.geometry`  -- threshold radii, tessellation, transit balls
- :mod:`rggembed.rgg`       -- point sampling, cell-list graph, colouring
- :mod:`rggembed.trees`     -- tree type and generators
- :mod:`rggembed.decompose` -- centroid splitting into comparable subtrees
- :mod:`rggembed.embed`     -- the two-step embedding, 1-d greedy, validator
- :mod:`rggembed.harness`   -- seeded experiments and their per-trial records
- :mod:`rggembed.cli`       -- command-line front end for the harness
"""

from .geometry import (
    Tessellation,
    TransitBalls,
    BallSystem,
    GeometryInfeasible,
    critical_radius,
    epsilon_param,
    simulation_epsilon,
    choose_odd_s,
    build_tessellation,
)
from .rgg import (
    PointSet,
    ColorAssignment,
    GeometricGraph,
    HopDiameter,
    sample_points,
    color_points,
    build_graph,
    hop_diameter,
)
from .trees import (
    Tree,
    height_h,
    truncated_regular_tree,
    uniform_random_tree,
    random_bounded_degree_tree,
    path_tree,
)
from .decompose import (
    Decomposition,
    split_tree,
)
from .embed import (
    Embedding,
    FailureInfo,
    embed_tree,
    verify_embedding,
    greedy_line_embed,
)

__version__ = "0.1.0"
