#include "core/video_affinity.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/strings.h"

namespace hmmm {
namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// UniformRowSum memoized on the last (value, width) asked for: the rows
/// of a model are mostly one shared pair, so a pass over them adds each
/// distinct pair's terms once.
class UniformSums {
 public:
  double Get(double value, size_t width) {
    if (!valid_ || !SameBits(value, value_) || width != width_) {
      value_ = value;
      width_ = width;
      sum_ = UniformRowSum(value, width);
      valid_ = true;
    }
    return sum_;
  }

 private:
  bool valid_ = false;
  double value_ = 0.0;
  size_t width_ = 0;
  double sum_ = 0.0;
};

}  // namespace

double UniformRowSum(double value, size_t width) {
  double sum = 0.0;
  for (size_t c = 0; c < width; ++c) sum += value;
  return sum;
}

VideoAffinity::VideoAffinity(size_t m, double value) : rows_(m) {
  for (Row& row : rows_) {
    row.value = value;
    row.width = m;
  }
}

void VideoAffinity::SetUniform(size_t r, double value, size_t width) {
  Row& row = rows_[r];
  row.value = value;
  row.width = width;
  row.borrowed = nullptr;
  row.owned = Matrix::Buffer();
}

void VideoAffinity::SetRow(size_t r, const double* values) {
  const size_t m = cols();
  size_t width = 0;
  while (width < m && SameBits(values[width], values[0])) ++width;
  size_t end = width;
  while (end < m && SameBits(values[end], 0.0)) ++end;
  if (end == m) {
    SetUniform(r, m > 0 ? values[0] : 0.0, width);
    return;
  }
  Row& row = rows_[r];
  row.borrowed = nullptr;
  row.owned.assign(values, values + m);
}

void VideoAffinity::BorrowRow(size_t r, const double* data) {
  Row& row = rows_[r];
  row.owned = Matrix::Buffer();
  row.borrowed = data;
}

double* VideoAffinity::MutableRow(size_t r) {
  Row& row = rows_[r];
  if (row.owned.empty()) {
    Matrix::Buffer owned(cols());
    ExpandRow(r, owned.data());
    row.owned = std::move(owned);
    row.borrowed = nullptr;
  }
  return row.owned.data();
}

void VideoAffinity::ExpandRow(size_t r, double* out) const {
  const RowView view = row(r);
  const size_t m = cols();
  if (!view.uniform()) {
    std::copy(view.dense(), view.dense() + m, out);
    return;
  }
  std::fill(out, out + view.width(), view.value());
  std::fill(out + view.width(), out + m, 0.0);
}

double VideoAffinity::RowSum(size_t r) const {
  const RowView view = row(r);
  if (view.uniform()) return UniformRowSum(view.value(), view.width());
  double sum = 0.0;
  for (size_t c = 0; c < cols(); ++c) sum += view.dense()[c];
  return sum;
}

void VideoAffinity::NormalizeRows() {
  UniformSums sums;
  for (size_t r = 0; r < rows(); ++r) {
    Row& row = rows_[r];
    if (IsUniform(r)) {
      const double sum = sums.Get(row.value, row.width);
      if (sum > 0.0) row.value /= sum;
      continue;
    }
    const double sum = RowSum(r);
    if (sum <= 0.0) continue;
    double* values = MutableRow(r);
    for (size_t c = 0; c < cols(); ++c) values[c] /= sum;
  }
}

Matrix VideoAffinity::ToDense() const {
  Matrix dense(rows(), cols(), 0.0);
  for (size_t r = 0; r < rows(); ++r) ExpandRow(r, dense.MutableRowPtr(r));
  return dense;
}

Status VideoAffinity::Validate(double tolerance) const {
  const size_t m = cols();
  UniformSums sums;
  for (size_t r = 0; r < rows(); ++r) {
    const RowView view = row(r);
    double sum = 0.0;
    if (view.uniform()) {
      if (!std::isfinite(view.value()) || view.value() < 0.0 ||
          view.width() > m) {
        return Status::Internal(
            StrFormat("A2 row %zu: bad uniform row (%g, %zu)", r,
                      view.value(), view.width()));
      }
      sum = sums.Get(view.value(), view.width());
    } else {
      for (size_t c = 0; c < m; ++c) {
        if (view.dense()[c] < -tolerance) {
          return Status::Internal("A2 not row-stochastic");
        }
        sum += view.dense()[c];
      }
    }
    if (std::abs(sum) <= tolerance) continue;
    if (std::abs(sum - 1.0) > tolerance) {
      return Status::Internal("A2 not row-stochastic");
    }
  }
  return Status::OK();
}

}  // namespace hmmm
