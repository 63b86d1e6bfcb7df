"""The tests' reference generator actions: the oracle backend's moves built
one generator at a time, each action a fresh product of whole vectors,
independent of the basis-pair table :class:`superchar.oracle.Backend` reads
them off.

Per generator 1 + X_g, X_g = t e_g with t in an additive basis of F_q, each
kind lists one move (a tuple of (tgt, src, c) updates, in the order of
``Backend``): X -> (1 + X_g) X, X -> X (1 + X_g), the transposed
multiplications by (1 + X_g)**-1 on the dual space, and conjugation."""


def reference_moves(field, dim, product):
    """(mult_left, mult_right, dual_left, dual_right, conj) from ``product``."""
    F = field

    def plus(u, v):
        return tuple(F.add(a, b) for a, b in zip(u, v))

    def inverse(x):  # (1 + X)**-1 - 1 = -X + X**2 - ..., finite by nilpotency
        neg = tuple(F.neg(v) for v in x)
        out, term = (0,) * dim, neg
        while any(term):
            out, term = plus(out, term), product(term, neg)
        return out

    def updates(delta, transpose=False):
        """The map e -> e + delta(e), or its transpose, as updates."""
        ups = []
        for src in range(dim):
            e = tuple(1 if k == src else 0 for k in range(dim))
            for tgt, c in enumerate(delta(e)):
                if c:
                    ups.append((src, tgt, c) if transpose else (tgt, src, c))
        return tuple(ups)

    moves = ([], [], [], [], [])
    for gidx in range(dim):
        for t in F.additive_generators():
            g = tuple(t if k == gidx else 0 for k in range(dim))
            g_inv = inverse(g)

            def conj(e):  # (1 + X_g) e (1 + X_g)**-1 - e
                ge = product(g, e)
                return plus(ge, product(plus(e, ge), g_inv))

            per_kind = (
                updates(lambda e: product(g, e)),
                updates(lambda e: product(e, g)),
                updates(lambda e: product(g_inv, e), transpose=True),
                updates(lambda e: product(e, g_inv), transpose=True),
                updates(conj),
            )
            for out, ups in zip(moves, per_kind):
                if ups:
                    out.append(ups)
    return tuple(map(tuple, moves))
