import networkx as nx
import numpy as np
import pytest

from hodgelap.constructions import FamilySpec, generate
from hodgelap.core import _components, coboundary_matrix, dual_graph, from_facets


@pytest.fixture(scope="session")
def fixtures():
    """Small named complexes reused across test modules."""
    return {
        "filled-triangle": from_facets([[0, 1, 2]]),
        "hollow-triangle": from_facets([[0, 1], [1, 2], [0, 2]]),
        "k3-graph": from_facets([[0, 1], [0, 2], [1, 2]]),
        "p3-path": from_facets([[0, 1], [1, 2]]),
        "c4-cycle": from_facets([[0, 1], [1, 2], [2, 3], [0, 3]]),
        "k13-star": from_facets([[0, 1], [0, 2], [0, 3]]),
        "delta3": from_facets([[0, 1, 2, 3]]),
        "boundary-delta3": from_facets([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),
        "two-triangles-shared-edge": from_facets([[0, 1, 2], [1, 2, 3]]),
        "two-triangles-shared-vertex": from_facets([[0, 1, 2], [2, 3, 4]]),
        "moebius": generate(FamilySpec("moebius-circuit")),
        "single-edge": from_facets([[0, 1]]),
    }


@pytest.fixture(scope="session")
def random_complexes():
    """Deterministic random complexes for property-style loops."""
    from hodgelap.corpus import random_complex

    rng = np.random.default_rng(12345)
    return [random_complex(rng, max_faces=40) for _ in range(12)]


@pytest.fixture(scope="session")
def path_components():
    """The q-path components of a complex, from networkx alone.

    Returns a function of ``(k, q)`` giving the connected components of
    ``dual_graph(k, q, "down")``, each a sorted list of q-faces, ordered by
    their first face.
    """

    def components(k, q):
        dual = dual_graph(k, q, "down")
        graph = nx.Graph()
        graph.add_nodes_from(range(len(dual.nodes)))
        graph.add_edges_from((a, b) for a, b, _ in dual.edges)
        found = (sorted(dual.nodes[v] for v in comp) for comp in nx.connected_components(graph))
        return sorted(found, key=lambda comp: comp[0])

    return components


@pytest.fixture(scope="session")
def component_rows():
    """The q-path components of a complex as sorted q-face rows, ordered by first row.

    Returns a function of ``(k, q)`` that groups the row labels of
    ``_components(coboundary_matrix(k, q - 1), "rows")``; a component's label
    is its first row.
    """

    def components(k, q):
        labels = _components(coboundary_matrix(k, q - 1), "rows")
        return [np.flatnonzero(labels == first).tolist() for first in np.unique(labels)]

    return components
