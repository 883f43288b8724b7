#include "common/matrix.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"

namespace rockhopper::common {
namespace {

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(MatrixTest, FromRowsAndRowCol) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m.Row(1), (std::vector<double>{3, 4}));
  EXPECT_EQ(m.Col(0), (std::vector<double>{1, 3, 5}));
}

TEST(MatrixTest, IdentityMultiplicationIsNoOp) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix i = Matrix::Identity(2);
  EXPECT_EQ(m.Multiply(i), m);
  EXPECT_EQ(i.Multiply(m), m);
}

TEST(MatrixTest, TransposeInvolution) {
  Matrix m = Matrix::FromRows({{1, 2, 3}, {4, 5, 6}});
  Matrix t = m.Transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_EQ(t.Transpose(), m);
}

TEST(MatrixTest, MultiplyKnownProduct) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = a.Multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MatrixVectorProduct) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const std::vector<double> v = a.Multiply(std::vector<double>{1.0, -1.0});
  EXPECT_DOUBLE_EQ(v[0], -1.0);
  EXPECT_DOUBLE_EQ(v[1], -1.0);
}

TEST(MatrixTest, AddAndAddDiagonal) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{1, 1}, {1, 1}});
  Matrix c = a.Add(b);
  EXPECT_DOUBLE_EQ(c(1, 1), 5.0);
  c.AddDiagonal(10.0);
  EXPECT_DOUBLE_EQ(c(0, 0), 12.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 15.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 3.0);
}

TEST(CholeskyTest, FactorizesKnownSpdMatrix) {
  // A = L L^T with L = [[2,0],[1,3]].
  Matrix a = Matrix::FromRows({{4, 2}, {2, 10}});
  Result<Matrix> l = CholeskyFactor(a);
  ASSERT_TRUE(l.ok());
  EXPECT_NEAR((*l)(0, 0), 2.0, 1e-12);
  EXPECT_NEAR((*l)(1, 0), 1.0, 1e-12);
  EXPECT_NEAR((*l)(1, 1), 3.0, 1e-12);
  EXPECT_NEAR((*l)(0, 1), 0.0, 1e-12);
}

TEST(CholeskyTest, RejectsNonSquare) {
  Matrix a(2, 3);
  EXPECT_EQ(CholeskyFactor(a).status().code(), StatusCode::kInvalidArgument);
}

TEST(CholeskyTest, RejectsIndefiniteWithoutJitter) {
  Matrix a = Matrix::FromRows({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  EXPECT_FALSE(CholeskyFactor(a).ok());
}

TEST(CholeskyTest, JitterRescuesNearSingular) {
  // Rank-1 matrix; jitter retries should succeed.
  Matrix a = Matrix::FromRows({{1, 1}, {1, 1}});
  EXPECT_FALSE(CholeskyFactor(a).ok());
  EXPECT_TRUE(CholeskyFactor(a, 1e-8).ok());
}

TEST(CholeskyTest, SolveRoundTrips) {
  Matrix a = Matrix::FromRows({{4, 2}, {2, 10}});
  const std::vector<double> x_true = {1.0, -2.0};
  const std::vector<double> b = a.Multiply(x_true);
  Result<std::vector<double>> x = CholeskySolve(a, b);
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR((*x)[0], 1.0, 1e-10);
  EXPECT_NEAR((*x)[1], -2.0, 1e-10);
}

TEST(TriangularSolveTest, ForwardAndBackward) {
  Matrix l = Matrix::FromRows({{2, 0}, {1, 3}});
  const std::vector<double> b = {4.0, 11.0};
  const std::vector<double> y = ForwardSubstitute(l, b);
  EXPECT_NEAR(y[0], 2.0, 1e-12);
  EXPECT_NEAR(y[1], 3.0, 1e-12);
  // L^T x = y.
  const std::vector<double> x = BackSubstituteTranspose(l, y);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
  EXPECT_NEAR(x[0], 0.5, 1e-12);
}

TEST(GaussianSolveTest, SolvesGeneralSystem) {
  Matrix a = Matrix::FromRows({{0, 2, 1}, {1, -2, -3}, {-1, 1, 2}});
  const std::vector<double> x_true = {3.0, -1.0, 2.0};
  const std::vector<double> b = a.Multiply(x_true);
  Result<std::vector<double>> x = GaussianSolve(a, b);
  ASSERT_TRUE(x.ok());
  for (size_t i = 0; i < 3; ++i) EXPECT_NEAR((*x)[i], x_true[i], 1e-10);
}

TEST(GaussianSolveTest, DetectsSingular) {
  Matrix a = Matrix::FromRows({{1, 2}, {2, 4}});
  EXPECT_EQ(GaussianSolve(a, {1.0, 2.0}).status().code(),
            StatusCode::kInternal);
}

TEST(GaussianSolveTest, RejectsShapeMismatch) {
  Matrix a(2, 3);
  EXPECT_FALSE(GaussianSolve(a, {1.0, 2.0}).ok());
}

TEST(LeastSquaresTest, RecoversExactLinearModel) {
  // y = 2*x0 - 3*x1 on a well-conditioned design.
  Rng rng(3);
  Matrix x(50, 2);
  std::vector<double> y(50);
  for (size_t i = 0; i < 50; ++i) {
    x(i, 0) = rng.Uniform(-1, 1);
    x(i, 1) = rng.Uniform(-1, 1);
    y[i] = 2.0 * x(i, 0) - 3.0 * x(i, 1);
  }
  Result<std::vector<double>> w = LeastSquares(x, y);
  ASSERT_TRUE(w.ok());
  EXPECT_NEAR((*w)[0], 2.0, 1e-8);
  EXPECT_NEAR((*w)[1], -3.0, 1e-8);
}

TEST(LeastSquaresTest, RidgeShrinksCoefficients) {
  Rng rng(4);
  Matrix x(30, 1);
  std::vector<double> y(30);
  for (size_t i = 0; i < 30; ++i) {
    x(i, 0) = rng.Uniform(-1, 1);
    y[i] = 5.0 * x(i, 0);
  }
  const double w0 = (*LeastSquares(x, y, 0.0))[0];
  const double w_ridge = (*LeastSquares(x, y, 100.0))[0];
  EXPECT_GT(w0, w_ridge);
  EXPECT_GT(w_ridge, 0.0);
}

TEST(LeastSquaresTest, HandlesRankDeficientDesign) {
  // Duplicate column: normal equations singular without jitter.
  Matrix x = Matrix::FromRows({{1, 1}, {2, 2}, {3, 3}});
  Result<std::vector<double>> w = LeastSquares(x, {2, 4, 6});
  ASSERT_TRUE(w.ok());
  // Any w with w0 + w1 = 2 is a solution; prediction must be right.
  EXPECT_NEAR((*w)[0] + (*w)[1], 2.0, 1e-4);
}

TEST(LeastSquaresTest, RejectsEmptyAndMismatched) {
  EXPECT_FALSE(LeastSquares(Matrix(), {}).ok());
  EXPECT_FALSE(LeastSquares(Matrix(2, 1), {1.0, 2.0, 3.0}).ok());
}

TEST(VectorOpsTest, DotNormDistance) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(Norm({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({1, 1}, {4, 5}), 25.0);
}

TEST(MatrixTest, AppendRowGrowsAndFixesWidth) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  m.AppendRow(std::vector<double>{1.0, 2.0, 3.0});
  m.AppendRow(std::vector<double>{4.0, 5.0, 6.0});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 1), 5.0);
  EXPECT_EQ(m.Row(0), (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(MatrixTest, DropFirstRowsSlidesWindow) {
  Matrix m = Matrix::FromRows({{1, 1}, {2, 2}, {3, 3}, {4, 4}});
  m.DropFirstRows(2);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.Row(0), (std::vector<double>{3, 3}));
  m.DropFirstRows(5);  // dropping more than present empties the matrix
  EXPECT_EQ(m.rows(), 0u);
  // An emptied matrix accepts a fresh width via AppendRow only after cols
  // are preserved; same width keeps working.
  m.AppendRow(std::vector<double>{7.0, 8.0});
  EXPECT_EQ(m.rows(), 1u);
  EXPECT_EQ(m.cols(), 2u);
}

// Random SPD matrix A = B B^T + n I for factorization tests.
Matrix RandomSpd(size_t n, Rng* rng) {
  Matrix b(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) b(i, j) = rng->Uniform(-1.0, 1.0);
  }
  Matrix a = b.Multiply(b.Transpose());
  a.AddDiagonal(static_cast<double>(n));
  return a;
}

TEST(CholeskyAppendRowTest, MatchesFullFactorizationOnRandomSpd) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 2 + static_cast<size_t>(rng.Index(30));
    const Matrix a = RandomSpd(n, &rng);
    // Factor the leading (n-1) x (n-1) principal block, then append the
    // last row; the result must match factoring the full matrix directly.
    Matrix head(n - 1, n - 1);
    for (size_t i = 0; i + 1 < n; ++i) {
      for (size_t j = 0; j + 1 < n; ++j) head(i, j) = a(i, j);
    }
    Result<Matrix> l_head = CholeskyFactor(head);
    ASSERT_TRUE(l_head.ok());
    Matrix grown = *l_head;
    std::vector<double> row(n);
    for (size_t j = 0; j < n; ++j) row[j] = a(n - 1, j);
    ASSERT_TRUE(CholeskyAppendRow(&grown, row).ok());

    Result<Matrix> l_full = CholeskyFactor(a);
    ASSERT_TRUE(l_full.ok());
    ASSERT_EQ(grown.rows(), l_full->rows());
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j <= i; ++j) {
        EXPECT_NEAR(grown(i, j), (*l_full)(i, j), 1e-9)
            << "trial " << trial << " at (" << i << "," << j << ")";
      }
    }
  }
}

TEST(CholeskySlideTest, MatchesFactorOfSlidMatrix) {
  Rng rng(43);
  for (int trial = 0; trial < 20; ++trial) {
    // A (n+1) x (n+1) SPD matrix: its leading n x n block is the window
    // before the slide, its trailing n x n block the window after it.
    const size_t n = 1 + static_cast<size_t>(rng.Index(30));
    const Matrix a = RandomSpd(n + 1, &rng);
    Matrix before(n, n), after(n, n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        before(i, j) = a(i, j);
        after(i, j) = a(i + 1, j + 1);
      }
    }
    Result<Matrix> l = CholeskyFactor(before);
    ASSERT_TRUE(l.ok());
    Matrix slid = *l;
    std::vector<double> row(n);
    for (size_t j = 0; j < n; ++j) row[j] = a(n, j + 1);
    ASSERT_TRUE(CholeskySlide(&slid, row).ok());
    Result<Matrix> l_after = CholeskyFactor(after);
    ASSERT_TRUE(l_after.ok());
    ASSERT_EQ(slid.rows(), n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        EXPECT_NEAR(slid(i, j), (*l_after)(i, j), 1e-9)
            << "trial " << trial << " at (" << i << "," << j << ")";
      }
    }
  }
}

TEST(CholeskyFactorIntoTest, MatchesCholeskyFactorBitForBit) {
  Rng rng(44);
  std::vector<double> l;  // reused across sizes
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = 1 + static_cast<size_t>(rng.Index(20));
    const Matrix a = RandomSpd(n, &rng);
    std::vector<double> flat;
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) flat.push_back(a(i, j));
    }
    ASSERT_TRUE(CholeskyFactorInto(flat, n, 1e-10, &l).ok());
    Result<Matrix> expected = CholeskyFactor(a, 1e-10);
    ASSERT_TRUE(expected.ok());
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) EXPECT_EQ(l[i * n + j], (*expected)(i, j));
    }
  }
  // Not positive definite, even after the jitter retries.
  EXPECT_FALSE(CholeskyFactorInto(std::vector<double>{1.0, 2.0, 2.0, 1.0}, 2,
                                  1e-10, &l)
                   .ok());
}

TEST(CholeskyAppendRowTest, JitterRescuesDegenerateDiagonal) {
  // Appending a duplicate of an existing row makes the grown matrix
  // singular: the new diagonal d = a_nn - ||y||^2 collapses to ~0. Without
  // jitter the append must fail; with jitter it must succeed.
  Matrix a = Matrix::FromRows({{2.0, 1.0}, {1.0, 2.0}});
  Result<Matrix> l = CholeskyFactor(a);
  ASSERT_TRUE(l.ok());
  // New row duplicates row 1 exactly => A' is singular.
  const std::vector<double> dup = {1.0, 2.0, 2.0};
  Matrix no_jitter = *l;
  EXPECT_FALSE(CholeskyAppendRow(&no_jitter, dup, /*jitter=*/0.0).ok());
  // A failed append must leave the factor untouched.
  EXPECT_EQ(no_jitter, *l);
  Matrix with_jitter = *l;
  ASSERT_TRUE(CholeskyAppendRow(&with_jitter, dup, /*jitter=*/1e-8).ok());
  EXPECT_EQ(with_jitter.rows(), 3u);
  EXPECT_GT(with_jitter(2, 2), 0.0);
}

TEST(CholeskyAppendRowTest, RejectsMalformedInput) {
  Matrix rect(2, 3);
  EXPECT_FALSE(
      CholeskyAppendRow(&rect, std::vector<double>{1.0, 2.0, 3.0}).ok());
  Matrix l = *CholeskyFactor(Matrix::Identity(2));
  EXPECT_FALSE(CholeskyAppendRow(&l, std::vector<double>{1.0}).ok());
}

TEST(MultiRhsTest, ForwardSubstituteMultiMatchesPerVector) {
  Rng rng(7);
  const size_t n = 12;
  const size_t m = 5;
  const Matrix a = RandomSpd(n, &rng);
  const Matrix l = *CholeskyFactor(a);
  Matrix b(n, m);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) b(i, j) = rng.Uniform(-2.0, 2.0);
  }
  const Matrix y = ForwardSubstituteMulti(l, b);
  const Matrix x = BackSubstituteTransposeMulti(l, y);
  for (size_t j = 0; j < m; ++j) {
    const std::vector<double> yj = ForwardSubstitute(l, b.Col(j));
    const std::vector<double> xj = BackSubstituteTranspose(l, yj);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_DOUBLE_EQ(y(i, j), yj[i]) << "forward col " << j;
      EXPECT_DOUBLE_EQ(x(i, j), xj[i]) << "backward col " << j;
    }
  }
}

}  // namespace
}  // namespace rockhopper::common
