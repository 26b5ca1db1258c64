"""The relation basis of a truncated kernel, which the solve never keeps:
the tests of the certificate's refusal and of the stabilizer's fallback
for a span that is not closed under the x-multiples read it."""

from dgal import linalg
from dgal.relations import (RelationIdeal, _AnsatzBuilder, _kernel_to_polys,
                            _row_reduce_polys, _shift_generators, group_ring)


def truncated_relations(sys, a, d, ell, N):
    """The canonical basis of the exact kernel of the ansatz rows 0..N+1,
    read off its shift generators as the solve reads a kernel; below the
    certified order it can hold false relations."""
    builder = _AnsatzBuilder(sys, a, d, ell)
    acc = linalg.RrefAccumulator(builder.field, builder.ncols)
    for k in range(N + 2):
        acc.add_row(builder.row(k))
    ring = group_ring(sys.n, sys.R)
    kernel = acc.kernel_vectors(_shift_generators(acc, builder.width))
    basis = _row_reduce_polys(ring, _kernel_to_polys(builder, kernel, ring, a))
    return RelationIdeal(ring, basis, d=d, a=a, ell=ell, order_used=N)
