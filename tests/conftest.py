"""Fixtures shared by the test modules."""

import pytest

from sclkit import FALSE, TRUE, And, Atom, Not, Or


def closed_terms(max_nodes: int, leaves=(TRUE, FALSE, Atom("a"), Atom("b"))) -> list:
    """Every closed ``!``/``&&``/``||`` term over ``leaves`` of at most
    ``max_nodes`` nodes, smaller terms first."""
    by_size = [[], list(leaves)]
    for n in range(2, max_nodes + 1):
        level = [Not(t) for t in by_size[n - 1]]
        for i in range(1, n - 1):
            for l in by_size[i]:
                for r in by_size[n - 1 - i]:
                    level += (And(l, r), Or(l, r))
        by_size.append(level)
    return [t for level in by_size for t in level]


@pytest.fixture(scope="session")
def corpus():
    """Every closed term of at most 7 nodes over ``T``, ``F``, ``a`` and
    ``b``: 22,140 terms, 22,136 of them compound."""
    return closed_terms(7)
