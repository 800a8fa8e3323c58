#ifndef HMMM_TESTS_DENSE_A2_ORACLE_H_
#define HMMM_TESTS_DENSE_A2_ORACLE_H_

// The A2 rewrites SliceForServing and RebuildPreservingLearning used to
// compute over a dense V x V matrix, kept verbatim as the reference the
// row-wise VideoAffinity versions must match bit for bit.

#include <cstddef>

#include "common/matrix.h"

namespace hmmm::testing {

/// A2 of the shard owning videos [begin, begin + n): the range's block,
/// each row renormalized over it (left as is when its sum is zero).
inline Matrix DenseSliceA2(const Matrix& a2, size_t begin, size_t n) {
  Matrix slice(n, n, 0.0);
  for (size_t r = 0; r < n; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < n; ++c) {
      const double value = a2.at(begin + r, begin + c);
      slice.at(r, c) = value;
      sum += value;
    }
    if (sum > 0.0) {
      for (size_t c = 0; c < n; ++c) slice.at(r, c) /= sum;
    }
  }
  return slice;
}

/// A2 of an archive grown from old_a2's videos to m: the builder's
/// uniform 1/m matrix with the old block embedded, every row
/// renormalized.
inline Matrix DenseRebuildA2(const Matrix& old_a2, size_t m) {
  const size_t old_m = old_a2.rows();
  Matrix a2(m, m, m > 0 ? 1.0 / static_cast<double>(m) : 0.0);
  if (old_m > 0 && old_m <= m) {
    for (size_t r = 0; r < old_m; ++r) {
      for (size_t c = 0; c < m; ++c) {
        a2.at(r, c) = c < old_m ? old_a2.at(r, c) : 0.0;
      }
    }
    a2.NormalizeRows();
  }
  return a2;
}

}  // namespace hmmm::testing

#endif  // HMMM_TESTS_DENSE_A2_ORACLE_H_
