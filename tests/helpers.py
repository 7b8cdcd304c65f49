"""Small assertions shared by test modules."""


def pair_set(graph) -> set:
    """A graph's ``(user, item)`` interactions as a set of int pairs."""
    return set(map(tuple, graph.pairs().tolist()))
