#ifndef ROCKHOPPER_COMMON_MATRIX_H_
#define ROCKHOPPER_COMMON_MATRIX_H_

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

#include "common/status.h"

namespace rockhopper::common {

/// Dense row-major matrix of doubles. Sized for the small/medium linear
/// systems used by the surrogate models (tens to low thousands of rows);
/// no attempt is made at cache blocking or SIMD, but the storage is flat
/// and contiguous so row operations stream and auto-vectorize.
///
/// Besides fixed-shape math, the matrix doubles as an appendable row store
/// (AppendRow / DropFirstRows / RowSpan): the incremental surrogate engine
/// keeps feature windows and Cholesky factors in this one representation
/// instead of `vector<vector<double>>`.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds a matrix from nested initializer data; all rows must be equal
  /// length.
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  /// Identity matrix of size n x n.
  static Matrix Identity(size_t n);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Copies row `r` out as a vector.
  std::vector<double> Row(size_t r) const;

  /// Zero-copy view of row `r`.
  std::span<const double> RowSpan(size_t r) const {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<double> MutableRowSpan(size_t r) {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  /// Row view; lets datasets be indexed like the old nested vectors.
  std::span<const double> operator[](size_t r) const { return RowSpan(r); }

  /// Pre-allocates storage for `rows` rows of `cols` columns.
  void Reserve(size_t rows, size_t cols) { data_.reserve(rows * cols); }

  /// Appends one row in amortized O(cols). The first row appended to an
  /// empty matrix fixes the column count; later rows must match it.
  void AppendRow(std::span<const double> row);

  /// Removes the first `n` rows in place (sliding-window truncation).
  void DropFirstRows(size_t n);

  /// Copies column `c` out as a vector.
  std::vector<double> Col(size_t c) const;

  Matrix Transpose() const;

  /// Matrix product; requires cols() == other.rows().
  Matrix Multiply(const Matrix& other) const;

  /// Matrix-vector product; requires cols() == v.size().
  std::vector<double> Multiply(const std::vector<double>& v) const;

  /// Elementwise addition; requires identical shapes.
  Matrix Add(const Matrix& other) const;

  /// Adds `value` to every diagonal entry in place (ridge / jitter).
  void AddDiagonal(double value);

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

/// Lower-triangular Cholesky factor of a symmetric positive-definite matrix.
/// Fails with InvalidArgument for non-square input and Internal when the
/// matrix is not positive definite (after exhausting jitter retries when
/// `jitter` > 0: the jitter is added to the diagonal and doubled up to 8
/// times, the standard Gaussian-process trick for near-singular kernels).
Result<Matrix> CholeskyFactor(const Matrix& a, double jitter = 0.0);

/// Buffer-reusing form of CholeskyFactor for hot loops: factors the n x n
/// row-major `a` into `l` (resized to n * n, strict upper triangle zero)
/// with the same jitter retries and bit-identical results.
Status CholeskyFactorInto(std::span<const double> a, size_t n, double jitter,
                          std::vector<double>* l);

/// Grows the Cholesky factor of an SPD matrix by one row in O(n^2): given
/// `l` with L L^T = A (n x n) and `row` = the new bottom row of the grown
/// matrix A' — the n cross terms A'(n, 0..n-1) followed by the new diagonal
/// A'(n, n) — rewrites `l` as the (n+1) x (n+1) factor of A'. Solves
/// L y = row[0..n) by forward substitution and appends [y^T, sqrt(d)] with
/// d = row[n] - ||y||^2. When d is non-positive and `jitter` > 0, the jitter
/// is added to the *new* diagonal entry and doubled up to 8 times (mirroring
/// CholeskyFactor); if that fails, `l` is left unchanged and Internal is
/// returned.
Status CholeskyAppendRow(Matrix* l, std::span<const double> row,
                         double jitter = 0.0);

/// Slides the Cholesky factor of an SPD matrix by one row in O(n^2), in
/// place: given `l` with L L^T = A (n x n), rewrites it as the n x n factor
/// of A' — A without row/column 0, grown by one new last row. `row` holds
/// the new row's n - 1 cross terms with A's rows 1..n-1, then its diagonal.
/// Dropping row/column 0 is a rank-1 *update* of the trailing block
/// (A22 = L22 L22^T + l21 l21^T; plane rotations, numerically stable), and
/// the new row is appended as in CholeskyAppendRow, jitter included. On
/// failure `l` is left in an unspecified state and Internal is returned.
Status CholeskySlide(Matrix* l, std::span<const double> row,
                     double jitter = 0.0);

/// Solves L * y = b for y where L is lower triangular (forward substitution).
std::vector<double> ForwardSubstitute(const Matrix& l,
                                      std::span<const double> b);

/// Solves L^T * x = y where L is lower triangular (back substitution on the
/// implicit transpose).
std::vector<double> BackSubstituteTranspose(const Matrix& l,
                                            std::span<const double> y);

/// Multi-right-hand-side forward substitution: solves L * Y = B for Y where
/// B is n x m (each column an independent right-hand side). Row-contiguous
/// updates stream across all m systems at once, so the per-system cost
/// vectorizes instead of being latency-bound like m single solves.
Matrix ForwardSubstituteMulti(const Matrix& l, const Matrix& b);

/// Multi-right-hand-side back substitution on the implicit transpose:
/// solves L^T * X = Y with Y given as n x m.
Matrix BackSubstituteTransposeMulti(const Matrix& l, const Matrix& y);

/// Solves A * x = b via the Cholesky factorization; A must be symmetric
/// positive definite (jitter retries as in CholeskyFactor).
Result<std::vector<double>> CholeskySolve(const Matrix& a,
                                          const std::vector<double>& b,
                                          double jitter = 0.0);

/// Solves a general square system A * x = b with partially pivoted Gaussian
/// elimination. Fails with Internal on (numerically) singular systems.
Result<std::vector<double>> GaussianSolve(Matrix a, std::vector<double> b);

/// Least-squares solution of min ||X w - y||^2 + l2 * ||w||^2 via the normal
/// equations (X^T X + l2 I) w = X^T y. `l2` >= 0; a tiny implicit jitter
/// guards rank-deficient designs.
Result<std::vector<double>> LeastSquares(const Matrix& x,
                                         const std::vector<double>& y,
                                         double l2 = 0.0);

/// Dot product; requires equal lengths.
double Dot(std::span<const double> a, std::span<const double> b);
inline double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  return Dot(std::span<const double>(a), std::span<const double>(b));
}

/// Euclidean norm.
double Norm(std::span<const double> v);
inline double Norm(const std::vector<double>& v) {
  return Norm(std::span<const double>(v));
}

/// Squared Euclidean distance between two equal-length vectors.
double SquaredDistance(std::span<const double> a, std::span<const double> b);
inline double SquaredDistance(const std::vector<double>& a,
                              const std::vector<double>& b) {
  return SquaredDistance(std::span<const double>(a),
                         std::span<const double>(b));
}

}  // namespace rockhopper::common

#endif  // ROCKHOPPER_COMMON_MATRIX_H_
