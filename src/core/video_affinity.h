#ifndef HMMM_CORE_VIDEO_AFFINITY_H_
#define HMMM_CORE_VIDEO_AFFINITY_H_

#include <cstddef>

#include "common/matrix.h"
#include "common/status.h"

namespace hmmm {

/// A2, the m x m video-level affinity matrix of the integrated MMM, stored
/// row by row in one of two kinds:
///  - uniform: a (value, width) pair meaning `value` on columns
///    [0, width) and +0.0 after them. The builder starts every row as
///    (1/m, m); Eqs. 5-6 only rewrite the rows an access pattern names,
///    so a served model is mostly rows of this kind and costs O(m)
///    memory instead of O(m^2).
///  - dense: m doubles, either owned or borrowed from external read-only
///    memory (an mmap'ed snapshot). Writing a row materializes that row
///    only: row-granular copy-on-write.
/// Every accessor returns the same doubles a dense matrix holding the
/// expanded rows would.
class VideoAffinity {
 public:
  /// One row, read-only; cheap to copy. Valid until the row is written.
  class RowView {
   public:
    double operator[](size_t c) const {
      return dense_ != nullptr ? dense_[c] : (c < width_ ? value_ : 0.0);
    }
    bool uniform() const { return dense_ == nullptr; }
    double value() const { return value_; }
    size_t width() const { return width_; }
    /// The m doubles of a dense row; null for a uniform row.
    const double* dense() const { return dense_; }

   private:
    friend class VideoAffinity;
    RowView(double value, size_t width, const double* dense)
        : value_(value), width_(width), dense_(dense) {}
    double value_;
    size_t width_;
    const double* dense_;
  };

  VideoAffinity() = default;
  /// m x m with every row (value, m).
  VideoAffinity(size_t m, double value);

  size_t rows() const { return rows_.size(); }
  size_t cols() const { return rows_.size(); }

  RowView row(size_t r) const {
    const Row& row = rows_[r];
    const double* dense = !row.owned.empty() ? row.owned.data() : row.borrowed;
    return RowView(row.value, row.width, dense);
  }
  double at(size_t r, size_t c) const { return row(r)[c]; }

  bool IsUniform(size_t r) const { return row(r).uniform(); }
  bool IsOwned(size_t r) const { return !rows_[r].owned.empty(); }
  bool IsBorrowed(size_t r) const { return rows_[r].borrowed != nullptr; }

  /// Makes row r uniform, releasing any dense storage it had.
  void SetUniform(size_t r, double value, size_t width);
  /// Sets row r to the cols() doubles at `values`: uniform when they are
  /// exactly uniform (a bitwise-equal prefix, then bitwise +0.0), an
  /// owned dense copy otherwise. ExpandRow gives the same bits back.
  void SetRow(size_t r, const double* values);
  /// Makes row r a view of the cols() doubles at `data`, which must
  /// outlive every read of this object and of copies still borrowing.
  void BorrowRow(size_t r, const double* data);
  /// Makes row r dense and owned, holding its current values, and
  /// returns its storage.
  double* MutableRow(size_t r);

  /// Writes the cols() doubles of row r to `out`.
  void ExpandRow(size_t r, double* out) const;
  /// Sum of row r, added in column order as a dense row scan would.
  double RowSum(size_t r) const;
  /// Divides every row whose sum is positive by that sum, entry by entry
  /// (Matrix::NormalizeRows with zero tolerance). A uniform row stays
  /// uniform.
  void NormalizeRows();

  /// The expanded m x m matrix.
  Matrix ToDense() const;

  /// Row-stochastic within `tolerance`, non-negative, all-zero rows
  /// accepted (Matrix::IsRowStochastic's test); uniform rows must also
  /// hold a finite non-negative value and a width <= m.
  Status Validate(double tolerance) const;

 private:
  struct Row {
    double value = 0.0;               // uniform rows
    size_t width = 0;                 // uniform rows
    const double* borrowed = nullptr; // dense rows viewing external memory
    Matrix::Buffer owned;             // dense rows owning their m doubles
  };
  std::vector<Row> rows_;
};

/// `value` added to +0.0 `width` times: the column-order sum of a uniform
/// row, bit for bit.
double UniformRowSum(double value, size_t width);

}  // namespace hmmm

#endif  // HMMM_CORE_VIDEO_AFFINITY_H_
