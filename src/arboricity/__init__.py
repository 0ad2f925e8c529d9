"""Fractional arboricity, prime partition, and arboricity-game nucleolus.

Everything is exact: densities, allocations and epsilon values are
``fractions.Fraction``.  Every exact decision reduces to integer max
flows in the flow kernel, ``arboricity.kernels``.
"""

from .density import (
    DensityCertificate,
    arboricity,
    density,
    enumerate_minimal_densest_subgraphs,
    exceeds_density,
    fractional_arboricity,
    minimal_densest_subgraph,
)
from .errors import (
    ArboricityError,
    DisconnectedGraphError,
    EmptyCoreError,
    GraphInputError,
    InternalInvariantError,
    ResourceLimitError,
)
from .game import (
    Allocation,
    CoreCheckResult,
    CoreStatus,
    core_membership,
    core_nonempty,
    core_vertices,
    gamma,
)
from .multigraph import ContractionView, EdgeId, Multigraph, VertexId
from .nucleolus import (
    PeelAssignment,
    is_tight_tree,
    nucleolus,
    peel,
    peel_assignment,
    solve_epsilon,
)
from .prime import (
    AncestorPoset,
    PrimePartition,
    PrimeSet,
    ancestors,
    decompose_densest_subgraph,
    prime_partition,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "AncestorPoset",
    "ArboricityError",
    "ContractionView",
    "CoreCheckResult",
    "CoreStatus",
    "DensityCertificate",
    "DisconnectedGraphError",
    "EdgeId",
    "EmptyCoreError",
    "GraphInputError",
    "InternalInvariantError",
    "Multigraph",
    "PeelAssignment",
    "PrimePartition",
    "PrimeSet",
    "ResourceLimitError",
    "VertexId",
    "ancestors",
    "arboricity",
    "core_membership",
    "core_nonempty",
    "core_vertices",
    "decompose_densest_subgraph",
    "density",
    "enumerate_minimal_densest_subgraphs",
    "exceeds_density",
    "fractional_arboricity",
    "gamma",
    "is_tight_tree",
    "minimal_densest_subgraph",
    "nucleolus",
    "peel",
    "peel_assignment",
    "prime_partition",
    "solve_epsilon",
]
