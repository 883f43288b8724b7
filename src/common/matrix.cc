#include "common/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/fast_math.h"

namespace rockhopper::common {

Matrix Matrix::FromRows(const std::vector<std::vector<double>>& rows) {
  if (rows.empty()) return Matrix();
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) {
    assert(rows[r].size() == m.cols_);
    for (size_t c = 0; c < m.cols_; ++c) m(r, c) = rows[r][c];
  }
  return m;
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

std::vector<double> Matrix::Row(size_t r) const {
  assert(r < rows_);
  return std::vector<double>(data_.begin() + r * cols_,
                             data_.begin() + (r + 1) * cols_);
}

void Matrix::AppendRow(std::span<const double> row) {
  if (data_.empty() && rows_ == 0) {
    cols_ = row.size();
  }
  assert(row.size() == cols_);
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
}

void Matrix::DropFirstRows(size_t n) {
  if (n == 0) return;
  if (n >= rows_) {
    data_.clear();
    rows_ = 0;
    return;
  }
  data_.erase(data_.begin(),
              data_.begin() + static_cast<std::ptrdiff_t>(n * cols_));
  rows_ -= n;
}

std::vector<double> Matrix::Col(size_t c) const {
  assert(c < cols_);
  std::vector<double> out(rows_);
  for (size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r)
    for (size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  assert(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (size_t c = 0; c < other.cols_; ++c) {
        out(r, c) += a * other(k, c);
      }
    }
  }
  return out;
}

std::vector<double> Matrix::Multiply(const std::vector<double>& v) const {
  assert(cols_ == v.size());
  std::vector<double> out(rows_, 0.0);
  for (size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (size_t c = 0; c < cols_; ++c) sum += (*this)(r, c) * v[c];
    out[r] = sum;
  }
  return out;
}

Matrix Matrix::Add(const Matrix& other) const {
  assert(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix out(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = data_[i] + other.data_[i];
  }
  return out;
}

void Matrix::AddDiagonal(double value) {
  const size_t n = std::min(rows_, cols_);
  for (size_t i = 0; i < n; ++i) (*this)(i, i) += value;
}

namespace {

// One Cholesky attempt on the n x n row-major `a` with `eps` added to the
// diagonal, writing the lower factor into `l` (the strict upper triangle is
// left untouched). Returns false when a pivot is non-positive. Every column
// is rewritten before it is read, so a failed attempt can be retried into
// the same buffer.
bool CholeskyAttempt(const double* a, size_t n, double eps, double* l) {
  for (size_t j = 0; j < n; ++j) {
    double diag = a[j * n + j] + eps;
    for (size_t k = 0; k < j; ++k) diag -= l[j * n + k] * l[j * n + k];
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    l[j * n + j] = std::sqrt(diag);
    for (size_t i = j + 1; i < n; ++i) {
      double sum = a[i * n + j];
      for (size_t k = 0; k < j; ++k) sum -= l[i * n + k] * l[j * n + k];
      l[i * n + j] = sum / l[j * n + j];
    }
  }
  return true;
}

// Plain attempt, then (when `jitter` > 0) the diagonal jitter doubled up to
// 8 times.
Status CholeskyWithJitter(const double* a, size_t n, double jitter,
                          double* l) {
  if (CholeskyAttempt(a, n, 0.0, l)) return Status::OK();
  double eps = jitter;
  for (int attempt = 0; jitter > 0.0 && attempt < 8; ++attempt) {
    if (CholeskyAttempt(a, n, eps, l)) return Status::OK();
    eps *= 2.0;
  }
  return Status::Internal("matrix is not positive definite");
}

}  // namespace

Result<Matrix> CholeskyFactor(const Matrix& a, double jitter) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  const size_t n = a.rows();
  Matrix l(n, n);
  if (n == 0) return l;
  ROCKHOPPER_RETURN_IF_ERROR(CholeskyWithJitter(
      a.RowSpan(0).data(), n, jitter, l.MutableRowSpan(0).data()));
  return l;
}

Status CholeskyFactorInto(std::span<const double> a, size_t n, double jitter,
                          std::vector<double>* l) {
  if (a.size() != n * n) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  l->assign(n * n, 0.0);
  return CholeskyWithJitter(a.data(), n, jitter, l->data());
}

namespace {

// Fills row `m` of a factor stored with row stride `stride` whose leading
// m x m block is L: solves L y = row[0..m) by forward substitution and writes
// [y^T, sqrt(row[m] - y^T y)], retrying a non-positive new diagonal with
// `jitter` doubled up to 8 times. Returns false (row `m` clobbered) when
// positive definiteness cannot be kept.
bool FillLastRow(double* l, size_t stride, size_t m,
                 std::span<const double> row, double jitter) {
  double* y = l + m * stride;
  for (size_t i = 0; i < m; ++i) {
    double sum = row[i];
    for (size_t k = 0; k < i; ++k) sum -= l[i * stride + k] * y[k];
    y[i] = sum / l[i * stride + i];
  }
  const std::span<const double> solved(y, m);
  const double cross = Dot(solved, solved);
  double diag = row[m] - cross;
  if (diag <= 0.0 || !std::isfinite(diag)) {
    if (jitter <= 0.0 || !std::isfinite(diag)) return false;
    double eps = jitter;
    bool rescued = false;
    for (int attempt = 0; attempt < 8; ++attempt) {
      diag = row[m] + eps - cross;
      if (diag > 0.0) {
        rescued = true;
        break;
      }
      eps *= 2.0;
    }
    if (!rescued) return false;
  }
  y[m] = std::sqrt(diag);
  return true;
}

}  // namespace

Status CholeskyAppendRow(Matrix* l, std::span<const double> row,
                         double jitter) {
  assert(l != nullptr);
  const size_t n = l->rows();
  if (l->cols() != n) {
    return Status::InvalidArgument("CholeskyAppendRow requires a square L");
  }
  if (row.size() != n + 1) {
    return Status::InvalidArgument(
        "CholeskyAppendRow requires n cross terms plus the new diagonal");
  }
  // Rebuild as (n+1) x (n+1): the old factor is preserved verbatim, the new
  // bottom row is [y^T, sqrt(diag)].
  Matrix grown(n + 1, n + 1);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) grown(i, j) = (*l)(i, j);
  }
  if (!FillLastRow(grown.MutableRowSpan(0).data(), n + 1, n, row, jitter)) {
    return Status::Internal("appended row breaks positive definiteness");
  }
  *l = std::move(grown);
  return Status::OK();
}

Status CholeskySlide(Matrix* l, std::span<const double> row, double jitter) {
  assert(l != nullptr);
  const size_t n = l->rows();
  if (l->cols() != n || n == 0) {
    return Status::InvalidArgument("CholeskySlide requires a non-empty L");
  }
  if (row.size() != n) {
    return Status::InvalidArgument(
        "CholeskySlide requires n - 1 cross terms plus the new diagonal");
  }
  const size_t m = n - 1;
  double* a = l->MutableRowSpan(0).data();
  // Drop row/column 0: A22 = L22 L22^T + l21 l21^T, so shift L22 to the top
  // left (every read stays ahead of every write) and fold l21 back in by a
  // rank-1 update, one plane rotation per column.
  std::vector<double> x(m);
  for (size_t i = 0; i < m; ++i) x[i] = a[(i + 1) * n];
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j <= i; ++j) a[i * n + j] = a[(i + 1) * n + j + 1];
  }
  for (size_t k = 0; k < m; ++k) {
    const double lkk = a[k * n + k];
    const double r = std::sqrt(lkk * lkk + x[k] * x[k]);
    const double c = r / lkk;
    const double s = x[k] / lkk;
    a[k * n + k] = r;
    for (size_t i = k + 1; i < m; ++i) {
      a[i * n + k] = (a[i * n + k] + s * x[i]) / c;
      x[i] = c * x[i] - s * a[i * n + k];
    }
  }
  // The new observation becomes the last row.
  if (!FillLastRow(a, n, m, row, jitter)) {
    return Status::Internal("slid row breaks positive definiteness");
  }
  return Status::OK();
}

std::vector<double> ForwardSubstitute(const Matrix& l,
                                      std::span<const double> b) {
  const size_t n = l.rows();
  assert(l.cols() == n && b.size() == n);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (size_t k = 0; k < i; ++k) sum -= l(i, k) * y[k];
    y[i] = sum / l(i, i);
  }
  return y;
}

std::vector<double> BackSubstituteTranspose(const Matrix& l,
                                            std::span<const double> y) {
  const size_t n = l.rows();
  assert(l.cols() == n && y.size() == n);
  std::vector<double> x(n);
  for (size_t ii = n; ii > 0; --ii) {
    const size_t i = ii - 1;
    double sum = y[i];
    for (size_t k = i + 1; k < n; ++k) sum -= l(k, i) * x[k];
    x[i] = sum / l(i, i);
  }
  return x;
}

namespace {

// Eliminates rows [k0, k1) of the already-solved block from row `ri` of the
// solution matrix (n x m, row-major), reading the multiplier for row k from
// coef[k * stride]. The 8-way unroll keeps the target row in registers across
// eight subtractions; each subtraction stays a separate IEEE operation in
// ascending k order, so results are bit-identical to the naive loop. The
// __restrict qualifiers (target row vs. solved rows never overlap) and the
// per-ISA clones are what let the j loop vectorize.
ROCKHOPPER_VECTOR_CLONES
void EliminateRows(double* __restrict yi, const double* __restrict y, size_t m,
                   const double* __restrict coef, size_t stride, size_t k0,
                   size_t k1) {
  size_t k = k0;
  for (; k + 8 <= k1; k += 8) {
    const double c0 = coef[k * stride];
    const double c1 = coef[(k + 1) * stride];
    const double c2 = coef[(k + 2) * stride];
    const double c3 = coef[(k + 3) * stride];
    const double c4 = coef[(k + 4) * stride];
    const double c5 = coef[(k + 5) * stride];
    const double c6 = coef[(k + 6) * stride];
    const double c7 = coef[(k + 7) * stride];
    const double* __restrict y0 = y + k * m;
    const double* __restrict y1 = y + (k + 1) * m;
    const double* __restrict y2 = y + (k + 2) * m;
    const double* __restrict y3 = y + (k + 3) * m;
    const double* __restrict y4 = y + (k + 4) * m;
    const double* __restrict y5 = y + (k + 5) * m;
    const double* __restrict y6 = y + (k + 6) * m;
    const double* __restrict y7 = y + (k + 7) * m;
    for (size_t j = 0; j < m; ++j) {
      double t = yi[j];
      t -= c0 * y0[j];
      t -= c1 * y1[j];
      t -= c2 * y2[j];
      t -= c3 * y3[j];
      t -= c4 * y4[j];
      t -= c5 * y5[j];
      t -= c6 * y6[j];
      t -= c7 * y7[j];
      yi[j] = t;
    }
  }
  for (; k < k1; ++k) {
    const double c = coef[k * stride];
    const double* __restrict yk = y + k * m;
    for (size_t j = 0; j < m; ++j) yi[j] -= c * yk[j];
  }
}

ROCKHOPPER_VECTOR_CLONES
void DivideRow(double* __restrict yi, size_t m, double d) {
  for (size_t j = 0; j < m; ++j) yi[j] /= d;
}

}  // namespace

Matrix ForwardSubstituteMulti(const Matrix& l, const Matrix& b) {
  const size_t n = l.rows();
  const size_t m = b.cols();
  assert(l.cols() == n && b.rows() == n);
  Matrix y(n, m);
  if (m == 0) return y;
  for (size_t i = 0; i < n; ++i) {
    std::span<double> yi = y.MutableRowSpan(i);
    const std::span<const double> bi = b.RowSpan(i);
    for (size_t j = 0; j < m; ++j) yi[j] = bi[j];
    // Row i of L holds the multipliers for solved rows 0..i-1, contiguously.
    EliminateRows(yi.data(), y.RowSpan(0).data(), m, l.RowSpan(i).data(),
                  /*stride=*/1, 0, i);
    DivideRow(yi.data(), m, l(i, i));
  }
  return y;
}

Matrix BackSubstituteTransposeMulti(const Matrix& l, const Matrix& y) {
  const size_t n = l.rows();
  const size_t m = y.cols();
  assert(l.cols() == n && y.rows() == n);
  Matrix x(n, m);
  if (m == 0) return x;
  for (size_t ii = n; ii > 0; --ii) {
    const size_t i = ii - 1;
    std::span<double> xi = x.MutableRowSpan(i);
    const std::span<const double> yi = y.RowSpan(i);
    for (size_t j = 0; j < m; ++j) xi[j] = yi[j];
    // Column i of L holds the multipliers for solved rows i+1..n-1, strided
    // by the row length.
    EliminateRows(xi.data(), x.RowSpan(0).data(), m, l.RowSpan(0).data() + i,
                  /*stride=*/n, i + 1, n);
    DivideRow(xi.data(), m, l(i, i));
  }
  return x;
}

Result<std::vector<double>> CholeskySolve(const Matrix& a,
                                          const std::vector<double>& b,
                                          double jitter) {
  if (a.rows() != b.size()) {
    return Status::InvalidArgument("dimension mismatch in CholeskySolve");
  }
  ROCKHOPPER_ASSIGN_OR_RETURN(l, CholeskyFactor(a, jitter));
  return BackSubstituteTranspose(l, ForwardSubstitute(l, b));
}

Result<std::vector<double>> GaussianSolve(Matrix a, std::vector<double> b) {
  if (a.rows() != a.cols() || a.rows() != b.size()) {
    return Status::InvalidArgument("GaussianSolve requires square A, |b|=n");
  }
  const size_t n = a.rows();
  for (size_t col = 0; col < n; ++col) {
    size_t pivot = col;
    for (size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a(r, col)) > std::fabs(a(pivot, col))) pivot = r;
    }
    if (std::fabs(a(pivot, col)) < 1e-14) {
      return Status::Internal("singular system in GaussianSolve");
    }
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) std::swap(a(col, c), a(pivot, c));
      std::swap(b[col], b[pivot]);
    }
    for (size_t r = col + 1; r < n; ++r) {
      const double f = a(r, col) / a(col, col);
      if (f == 0.0) continue;
      for (size_t c = col; c < n; ++c) a(r, c) -= f * a(col, c);
      b[r] -= f * b[col];
    }
  }
  std::vector<double> x(n);
  for (size_t ii = n; ii > 0; --ii) {
    const size_t i = ii - 1;
    double sum = b[i];
    for (size_t c = i + 1; c < n; ++c) sum -= a(i, c) * x[c];
    x[i] = sum / a(i, i);
  }
  return x;
}

Result<std::vector<double>> LeastSquares(const Matrix& x,
                                         const std::vector<double>& y,
                                         double l2) {
  if (x.rows() != y.size()) {
    return Status::InvalidArgument("LeastSquares: rows(X) != |y|");
  }
  if (x.rows() == 0 || x.cols() == 0) {
    return Status::InvalidArgument("LeastSquares: empty design matrix");
  }
  const Matrix xt = x.Transpose();
  Matrix gram = xt.Multiply(x);
  gram.AddDiagonal(l2);
  const std::vector<double> xty = xt.Multiply(y);
  // The implicit jitter keeps rank-deficient designs solvable; it is far
  // below the scale of any meaningful regularization.
  return CholeskySolve(gram, xty, /*jitter=*/1e-10);
}

double Dot(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double Norm(std::span<const double> v) { return std::sqrt(Dot(v, v)); }

double SquaredDistance(std::span<const double> a, std::span<const double> b) {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

}  // namespace rockhopper::common
