"""The node axis of the word table, for the quadrature references of the
tests: per length L = 1..trunc a group (lo, hi, U, V), where the words of
length L are rows lo..hi-1 of ``series._split_table(alphabet, trunc)`` and
row lo + j is split as U[j, k] V[j, k] for k < L, which runs over every
w = u v with v nonempty, by |v| ascending."""

import numpy as np

from dedekindsym.series import _split_table


def node_groups(alphabet, trunc):
    tab = _split_table(alphabet, trunc)
    groups, lo = [], 1
    for length in range(1, trunc + 1):
        hi = lo + len(alphabet) ** length
        rows = [[(tab.index[w[:k]], tab.index[w[k:]]) for k in range(length - 1, -1, -1)]
                for w in tab.words[lo:hi]]
        U, V = np.moveaxis(np.array(rows, dtype=np.intp), 2, 0)
        groups.append((lo, hi, U, V))
        lo = hi
    return tuple(groups)
