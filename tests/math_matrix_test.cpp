#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "math/matrix.hpp"
#include "util/rng.hpp"

namespace {

using namespace ob::math;
using ob::util::Rng;

template <std::size_t R, std::size_t C>
Mat<R, C> random_matrix(Rng& rng, double scale = 1.0) {
    Mat<R, C> m;
    for (std::size_t i = 0; i < R; ++i)
        for (std::size_t j = 0; j < C; ++j) m(i, j) = rng.gaussian(scale);
    return m;
}

template <std::size_t N>
Mat<N, N> random_spd(Rng& rng) {
    const auto a = random_matrix<N, N>(rng);
    return (a * a.transposed() + Mat<N, N>::identity() * 0.5).symmetrized();
}

TEST(Matrix, IdentityMultiplication) {
    Rng rng(1);
    const auto a = random_matrix<3, 3>(rng);
    const auto i = Mat3::identity();
    EXPECT_LT(((a * i) - a).max_abs(), 1e-15);
    EXPECT_LT(((i * a) - a).max_abs(), 1e-15);
}

TEST(Matrix, InitializerListLayoutIsRowMajor) {
    const Mat<2, 3> m{1, 2, 3,
                      4, 5, 6};
    EXPECT_DOUBLE_EQ(m(0, 0), 1);
    EXPECT_DOUBLE_EQ(m(0, 2), 3);
    EXPECT_DOUBLE_EQ(m(1, 0), 4);
    EXPECT_DOUBLE_EQ(m(1, 2), 6);
}

TEST(Matrix, InitializerListSizeMismatchThrows) {
    EXPECT_THROW((Mat<2, 2>{1, 2, 3}), std::invalid_argument);
}

TEST(Matrix, TransposeInvolution) {
    Rng rng(2);
    const auto a = random_matrix<4, 2>(rng);
    EXPECT_EQ(a.transposed().transposed(), a);
}

TEST(Matrix, MultiplicationAgainstKnown) {
    const Mat<2, 3> a{1, 2, 3,
                      4, 5, 6};
    const Mat<3, 2> b{7, 8,
                      9, 10,
                      11, 12};
    const Mat2 c = a * b;
    EXPECT_DOUBLE_EQ(c(0, 0), 58);
    EXPECT_DOUBLE_EQ(c(0, 1), 64);
    EXPECT_DOUBLE_EQ(c(1, 0), 139);
    EXPECT_DOUBLE_EQ(c(1, 1), 154);
}

TEST(Matrix, TraceAndDeterminantKnown) {
    const Mat2 m{3, 1,
                 2, 4};
    EXPECT_DOUBLE_EQ(m.trace(), 7.0);
    EXPECT_NEAR(determinant(m), 10.0, 1e-12);
}

TEST(Matrix, DeterminantOfSingularIsZero) {
    const Mat2 m{1, 2,
                 2, 4};
    EXPECT_NEAR(determinant(m), 0.0, 1e-12);
}

TEST(Matrix, InverseThrowsOnSingular) {
    const Mat2 m{1, 2,
                 2, 4};
    EXPECT_THROW((void)inverse(m), std::domain_error);
}

TEST(Matrix, BlockExtractAndSet) {
    Mat<4, 4> m;
    const Mat2 sub{1, 2,
                   3, 4};
    m.set_block(1, 2, sub);
    EXPECT_DOUBLE_EQ(m(1, 2), 1);
    EXPECT_DOUBLE_EQ(m(2, 3), 4);
    EXPECT_EQ((m.block<2, 2>(1, 2)), sub);
    EXPECT_THROW((void)(m.block<2, 2>(3, 3)), std::out_of_range);
}

TEST(Matrix, SymmetrizedIsSymmetric) {
    Rng rng(3);
    const auto a = random_matrix<5, 5>(rng);
    const auto s = a.symmetrized();
    EXPECT_LT((s - s.transposed()).max_abs(), 1e-15);
}

TEST(Vector, DotCrossAndSkew) {
    const Vec3 x{1, 0, 0};
    const Vec3 y{0, 1, 0};
    const Vec3 z{0, 0, 1};
    EXPECT_DOUBLE_EQ(dot(x, y), 0.0);
    EXPECT_LT((cross(x, y) - z).max_abs(), 1e-15);
    EXPECT_LT((cross(y, z) - x).max_abs(), 1e-15);

    Rng rng(4);
    const auto a = random_matrix<3, 1>(rng);
    const auto b = random_matrix<3, 1>(rng);
    EXPECT_LT((skew(a) * b - cross(a, b)).max_abs(), 1e-14);
    // a x b is orthogonal to both operands.
    EXPECT_NEAR(dot(cross(a, b), a), 0.0, 1e-12);
    EXPECT_NEAR(dot(cross(a, b), b), 0.0, 1e-12);
}

TEST(Vector, NormalizedHasUnitNorm) {
    const Vec3 v{3, 4, 0};
    EXPECT_DOUBLE_EQ(norm(v), 5.0);
    EXPECT_NEAR(norm(normalized(v)), 1.0, 1e-15);
    EXPECT_THROW((void)normalized(Vec3{0, 0, 0}), std::domain_error);
}

TEST(Vector, OuterProductShape) {
    const Vec2 a{1, 2};
    const Vec3 b{3, 4, 5};
    const auto m = outer(a, b);
    EXPECT_DOUBLE_EQ(m(0, 0), 3);
    EXPECT_DOUBLE_EQ(m(1, 2), 10);
}

// Property sweep: inverse, determinant, Cholesky and solve across many
// random matrices of each size the fusion core uses.
class MatrixPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MatrixPropertyTest, InverseRoundTrip2) {
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const auto a = random_matrix<2, 2>(rng) + Mat2::identity() * 3.0;
    EXPECT_LT(((a * inverse(a)) - Mat2::identity()).max_abs(), 1e-10);
}

TEST_P(MatrixPropertyTest, InverseRoundTrip3) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
    const auto a = random_matrix<3, 3>(rng) + Mat3::identity() * 3.0;
    EXPECT_LT(((a * inverse(a)) - Mat3::identity()).max_abs(), 1e-10);
    EXPECT_LT(((inverse(a) * a) - Mat3::identity()).max_abs(), 1e-10);
}

TEST_P(MatrixPropertyTest, InverseRoundTrip5) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 2000);
    const auto a = random_matrix<5, 5>(rng) + Mat<5, 5>::identity() * 4.0;
    EXPECT_LT(((a * inverse(a)) - Mat<5, 5>::identity()).max_abs(), 1e-9);
}

TEST_P(MatrixPropertyTest, DeterminantOfProductFactors) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 3000);
    const auto a = random_matrix<3, 3>(rng);
    const auto b = random_matrix<3, 3>(rng);
    EXPECT_NEAR(determinant(a * b), determinant(a) * determinant(b), 1e-9);
}

TEST_P(MatrixPropertyTest, CholeskyReconstructs) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 4000);
    const auto a = random_spd<4>(rng);
    const auto l = cholesky(a);
    EXPECT_LT(((l * l.transposed()) - a).max_abs(), 1e-9);
    // L is lower triangular.
    for (std::size_t i = 0; i < 4; ++i)
        for (std::size_t j = i + 1; j < 4; ++j) EXPECT_DOUBLE_EQ(l(i, j), 0.0);
}

TEST_P(MatrixPropertyTest, CholeskyRejectsIndefinite) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 5000);
    auto a = random_spd<3>(rng);
    a(2, 2) = -1.0;  // break positive definiteness
    EXPECT_THROW((void)cholesky(a), std::domain_error);
}

TEST_P(MatrixPropertyTest, SolveSatisfiesSystem) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 6000);
    const auto a = random_matrix<4, 4>(rng) + Mat<4, 4>::identity() * 3.0;
    const auto b = random_matrix<4, 1>(rng);
    const auto x = solve(a, b);
    EXPECT_LT(((a * x) - b).max_abs(), 1e-9);
}

/// Random matrix in which about half the entries are exact zeros, a third
/// of those negative.
template <std::size_t R, std::size_t C>
Mat<R, C> sparse_matrix(Rng& rng) {
    Mat<R, C> m;
    for (std::size_t i = 0; i < R; ++i) {
        for (std::size_t j = 0; j < C; ++j) {
            const double u = rng.uniform();
            m(i, j) = u < 0.3 ? 0.0 : u < 0.45 ? -0.0 : rng.gaussian(3.0);
        }
    }
    return m;
}

/// The reference product: each entry sums its terms in k order from +0.
template <std::size_t R, std::size_t K, std::size_t C>
Mat<R, C> naive_product(const Mat<R, K>& a, const Mat<K, C>& b) {
    Mat<R, C> out;
    for (std::size_t i = 0; i < R; ++i) {
        for (std::size_t j = 0; j < C; ++j) {
            double s = 0.0;
            for (std::size_t k = 0; k < K; ++k) s += a(i, k) * b(k, j);
            out(i, j) = s;
        }
    }
    return out;
}

template <std::size_t R, std::size_t K, std::size_t C>
void expect_product_matches_naive(Rng& rng) {
    const auto a = sparse_matrix<R, K>(rng);
    const auto b = sparse_matrix<K, C>(rng);
    const auto got = a * b;
    const auto want = naive_product(a, b);
    for (std::size_t i = 0; i < R; ++i) {
        for (std::size_t j = 0; j < C; ++j) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got(i, j)),
                      std::bit_cast<std::uint64_t>(want(i, j)));
            // A sum started at +0 never rounds to −0.
            if (got(i, j) == 0.0) {
                EXPECT_FALSE(std::signbit(got(i, j)));
            }
        }
    }
}

TEST_P(MatrixPropertyTest, ProductWithZerosMatchesNaiveLoopBitwise) {
    Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
    expect_product_matches_naive<2, 5, 5>(rng);
    expect_product_matches_naive<5, 5, 2>(rng);
    expect_product_matches_naive<5, 5, 5>(rng);
    expect_product_matches_naive<3, 3, 3>(rng);
    expect_product_matches_naive<3, 3, 1>(rng);
    expect_product_matches_naive<2, 3, 2>(rng);
}

TEST(Matrix, ProductOfSignedZerosIsPositiveZero) {
    const Mat<2, 2> neg{-0.0, -0.0, -0.0, -0.0};
    const Mat<2, 2> mixed{-1.0, 2.0, 0.0, -0.0};
    for (const auto& p : {neg * mixed, mixed * neg, neg * neg}) {
        for (std::size_t i = 0; i < 2; ++i) {
            for (std::size_t j = 0; j < 2; ++j) {
                EXPECT_EQ(p(i, j), 0.0);
                EXPECT_FALSE(std::signbit(p(i, j)));
            }
        }
    }
}

TEST(Matrix, ZeroTimesInfinityInProductIsNaN) {
    // Every term is computed, so 0·inf contributes NaN as IEEE 754
    // requires, rather than being skipped as a zero term.
    const double inf = std::numeric_limits<double>::infinity();
    const Mat<1, 2> a{0.0, 1.0};
    const Vec2 b{inf, 2.0};
    EXPECT_TRUE(std::isnan((a * b)[0]));
    const Mat<2, 2> i2 = Mat<2, 2>::identity();
    const Vec2 v{std::nan(""), 1.0};
    EXPECT_TRUE(std::isnan((i2 * v)[1]));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatrixPropertyTest, ::testing::Range(0, 25));

}  // namespace
