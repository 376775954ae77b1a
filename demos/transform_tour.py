#!/usr/bin/env python3
"""Tour of the vertex-split transform: incidence split, bipartite image,
degree transport, and the exact round trip."""

from zham import (
    build_digraph,
    degrees,
    f_matrix,
    bipartite_incidence,
    incidence_matrix,
    split_incidence,
    unzmap,
    zmap,
)


def show(matrix):
    """Print a matrix of the tuple-of-rows form one row per line."""
    for row in matrix:
        print(" ".join(f"{x:2d}" for x in row))


print("=" * 64)
print("The directed triangle")
print("=" * 64)
c3 = build_digraph(3, [(1, 2), (2, 3), (3, 1)])
print(c3)
print("degrees (out, in, total):", degrees(c3))

c = incidence_matrix(c3)
print("\nincidence matrix (+1 tail, -1 head, columns in arc order):")
show(c)

pair = split_incidence(c)
print("\nnonnegative half (tails):")
show(pair.c_plus)
print("nonpositive half (heads):")
show(pair.c_minus)

print("\nstacking [tails; -heads] gives the incidence of the bipartite image:")
show(f_matrix(c3))

z = zmap(c3)
print("\nbipartite image:", z)
print("x-degrees match out-degrees:", [z.degree_x(i) for i in (1, 2, 3)])
print("y-degrees match in-degrees: ", [z.degree_y(j) for j in (1, 2, 3)])
assert f_matrix(c3) == bipartite_incidence(z)

print("\nround trip recovers the digraph exactly:", unzmap(z) == c3)

print()
print("=" * 64)
print("The complete loopless digraph on three vertices")
print("=" * 64)
k3 = build_digraph(3, [(u, v) for u in (1, 2, 3) for v in (1, 2, 3) if u != v])
zk3 = zmap(k3)
print("its image is 2-regular on both parts:", zk3)
print(" (a single six-cycle, as the solvers demo shows)")
