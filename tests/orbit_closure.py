"""The tests' reference orbit closure: a breadth-first search from one
functional, independent of the vectorized sweep of :mod:`superchar.core`.

A move is the tuple of its updates (tgt, src, c), each adding c * f[src] to
f[tgt]; core's move sets and the oracle's backend both write moves so."""


def apply_move(field, f, updates) -> tuple[int, ...]:
    out = list(f)
    add, mul = field.add, field.mul
    for tgt, src, c in updates:
        v = f[src]
        if v:
            out[tgt] = add(out[tgt], mul(c, v))
    return tuple(out)


def bfs(field, start, moves) -> set:
    """Every functional reached from ``start`` by the moves."""
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for f in frontier:
            for updates in moves:
                g = apply_move(field, f, updates)
                if g not in seen:
                    seen.add(g)
                    nxt.append(g)
        frontier = nxt
    return seen
