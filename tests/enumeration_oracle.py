"""Reference enumeration of graph monomials: every edge subset, filtered.

Each subset of the vertex pairs, in every coloring, becomes a canonical
monomial in the tuple form (``monomial_oracle``); in forest mode the
subsets with a cycle are dropped first.  The list is sorted by the tuple
form's key.  Slow, but simple enough to trust; the tests compare
``graphalg.enumerate_graph_monomials``, and through ``colored_masks`` the
ambient masks of a graph component, against it.
"""

from itertools import combinations, product

from monomial_oracle import edge_key, has_cycle, mask_of, sort_key

from ramops.graphalg import MODES
from ramops.labels import check_label_set


def oracle_enumerate(pres, labels, mode="forest"):
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    labels = check_label_set(labels)
    pairs = list(combinations(labels, 2))
    ncolors = len(pres.colors)
    out = []
    for size in range(len(pairs) + 1):
        for subset in combinations(pairs, size):
            if mode == "forest" and has_cycle(subset):
                continue
            for assignment in product(range(ncolors), repeat=size):
                per_color = [[] for _ in range(ncolors)]
                for e, ci in zip(subset, assignment):
                    per_color[ci].append(e)
                out.append(tuple(tuple(sorted(es, key=edge_key)) for es in per_color))
    out.sort(key=lambda m: sort_key(m, pres))
    return out


def colored_masks(labels, monomials):
    """The colored mask (``monomial_oracle.mask_of``) of each monomial on the label set."""
    return list(map(mask_of(labels), monomials))
