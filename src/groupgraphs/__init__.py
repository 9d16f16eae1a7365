"""Power graphs, Cayley graphs, and Cayley-representability of finite groups.

The package builds finite groups from multiplication tables, constructs
their directed and undirected power graphs and Cayley graphs, decides
vertex-transitivity and Cayley-representability by searching for regular
subgroups of graph automorphism groups, and verifies over a built-in
catalog of all 28 groups of order <= 15 that the undirected power graph
is a Cayley graph exactly for cyclic groups of prime-power order, while
directed power graphs of nontrivial groups never are.

There is one search implementation, in pure Python in ``symmetry``;
``backend_name()`` names it.  Group tables, graph construction and the
large-order writers run on numpy.
"""

from __future__ import annotations

from .catalog import catalog, catalog_entry
from .cayley import ConnectionSet, directed_cayley, left_translation, undirected_cayley
from .errors import (
    ElementOutOfRange,
    GroupGraphsError,
    IdentityInConnectionSet,
    InvalidOrder,
    MalformedEncoding,
    NoIdentity,
    NotAssociative,
    NotClosed,
    NotInverseClosed,
    NotInvertible,
    SearchBoundExceeded,
    UnsupportedOrder,
    VertexOutOfRange,
)
from .graphs import (
    Digraph,
    SimpleGraph,
    from_digraph6,
    from_graph6,
    to_digraph6,
    to_dot,
    to_graph6,
)
from .groups import (
    FiniteGroup,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    direct_product,
    from_table,
    from_table_text,
    quaternion,
    symmetric,
)
from .perms import Permutation
from .powergraph import directed_power_graph, undirected_power_graph
from .symmetry import (
    CayleyWitness,
    NotCayley,
    NotCayleyReason,
    automorphisms,
    backend_name,
    find_regular_subgroup,
    is_cayley,
    is_vertex_transitive,
)
from .verify import VerificationRow, format_jsonl, format_table, verify_group, verify_theorem

__version__ = "0.1.0"

__all__ = [
    "CayleyWitness",
    "ConnectionSet",
    "Digraph",
    "ElementOutOfRange",
    "FiniteGroup",
    "GroupGraphsError",
    "IdentityInConnectionSet",
    "InvalidOrder",
    "MalformedEncoding",
    "NoIdentity",
    "NotAssociative",
    "NotCayley",
    "NotCayleyReason",
    "NotClosed",
    "NotInverseClosed",
    "NotInvertible",
    "Permutation",
    "SearchBoundExceeded",
    "SimpleGraph",
    "UnsupportedOrder",
    "VerificationRow",
    "VertexOutOfRange",
    "__version__",
    "alternating",
    "automorphisms",
    "backend_name",
    "catalog",
    "catalog_entry",
    "cyclic",
    "dicyclic",
    "dihedral",
    "direct_product",
    "directed_cayley",
    "directed_power_graph",
    "find_regular_subgroup",
    "format_jsonl",
    "format_table",
    "from_digraph6",
    "from_graph6",
    "from_table",
    "from_table_text",
    "is_cayley",
    "is_vertex_transitive",
    "left_translation",
    "quaternion",
    "symmetric",
    "to_digraph6",
    "to_dot",
    "to_graph6",
    "undirected_cayley",
    "undirected_power_graph",
    "verify_group",
    "verify_theorem",
]
