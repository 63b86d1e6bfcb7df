"""The tests' reference orbit sweep: the fancy-index fixpoint over whole
functional arrays, independent of the coordinate-axis permutations, the
rows of multiples, the digit-wise sums and the ``take`` gathers of
:func:`superchar.core.orbit_partition_from_moves`.

Each move, a tuple of updates (tgt, src, c) that add c * f[src] to f[tgt]
with every f[src] read before the move, is applied to the base-q digits of
every code at once through the field's addition and multiplication tables;
the images, re-encoded, are the move's permutation.  Labels then take the
minimum over ``labels[perm]`` for every permutation until nothing changes."""

import numpy as np


def reference_partition(field, dim, moves):
    """(labels, rep_codes, sizes) of the orbits of ``moves`` on F_q**dim:
    labels[code] is the least code of its orbit, as int64, and rep_codes and
    sizes list the orbits in ascending order of that code."""
    q = field.q
    add = np.array([[field.add(a, b) for b in range(q)] for a in range(q)])
    mul = np.array([[field.mul(a, b) for b in range(q)] for a in range(q)])
    place = q ** np.arange(dim - 1, -1, -1)  # first coordinate most significant
    codes = np.arange(q**dim)
    digits = codes[:, None] // place % q
    perms = []
    for updates in moves:
        image = digits.copy()
        for tgt, src, c in updates:
            image[:, tgt] = add[image[:, tgt], mul[c, digits[:, src]]]
        perms.append(image @ place)
    labels = codes.copy()
    changed = True
    while changed:
        changed = False
        for perm in perms:
            pulled = labels[perm]
            if (pulled < labels).any():
                labels = np.minimum(labels, pulled)
                changed = True
    rep_codes, sizes = np.unique(labels, return_counts=True)
    return labels, rep_codes, sizes
