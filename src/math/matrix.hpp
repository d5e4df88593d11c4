#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <initializer_list>
#include <stdexcept>
#include <string>

namespace ob::math {

/// Dense fixed-size column-major-free matrix for the small linear algebra
/// the fusion core needs (state dimensions are 2..6). Storage is a flat
/// row-major std::array; all operations are by value and constexpr-capable
/// so the Kalman pipeline has no allocation and is trivially inlined.
template <std::size_t R, std::size_t C, typename T = double>
class Mat {
public:
    static_assert(R >= 1 && C >= 1, "matrix dimensions must be positive");

    constexpr Mat() : a_{} {}

    /// Row-major element list; must supply exactly R*C values.
    constexpr Mat(std::initializer_list<T> values) : a_{} {
        if (values.size() != R * C)
            throw std::invalid_argument("Mat: initializer size mismatch");
        std::size_t i = 0;
        for (const T v : values) a_[i++] = v;
    }

    [[nodiscard]] static constexpr Mat zeros() { return Mat{}; }

    [[nodiscard]] static constexpr Mat identity() {
        static_assert(R == C, "identity requires a square matrix");
        Mat m;
        for (std::size_t i = 0; i < R; ++i) m(i, i) = T{1};
        return m;
    }

    /// All elements set to `v`.
    [[nodiscard]] static constexpr Mat filled(T v) {
        Mat m;
        for (auto& x : m.a_) x = v;
        return m;
    }

    [[nodiscard]] static constexpr std::size_t rows() { return R; }
    [[nodiscard]] static constexpr std::size_t cols() { return C; }

    [[nodiscard]] constexpr T& operator()(std::size_t r, std::size_t c) {
        return a_[r * C + c];
    }
    [[nodiscard]] constexpr const T& operator()(std::size_t r, std::size_t c) const {
        return a_[r * C + c];
    }

    /// Vector-style indexing; only for single-column or single-row shapes.
    [[nodiscard]] constexpr T& operator[](std::size_t i) {
        static_assert(R == 1 || C == 1, "operator[] requires a vector shape");
        return a_[i];
    }
    [[nodiscard]] constexpr const T& operator[](std::size_t i) const {
        static_assert(R == 1 || C == 1, "operator[] requires a vector shape");
        return a_[i];
    }

    constexpr Mat& operator+=(const Mat& o) {
        for (std::size_t i = 0; i < R * C; ++i) a_[i] += o.a_[i];
        return *this;
    }
    constexpr Mat& operator-=(const Mat& o) {
        for (std::size_t i = 0; i < R * C; ++i) a_[i] -= o.a_[i];
        return *this;
    }
    constexpr Mat& operator*=(T s) {
        for (auto& x : a_) x *= s;
        return *this;
    }

    [[nodiscard]] friend constexpr Mat operator+(Mat a, const Mat& b) { return a += b; }
    [[nodiscard]] friend constexpr Mat operator-(Mat a, const Mat& b) { return a -= b; }
    [[nodiscard]] friend constexpr Mat operator*(Mat a, T s) { return a *= s; }
    [[nodiscard]] friend constexpr Mat operator*(T s, Mat a) { return a *= s; }
    [[nodiscard]] friend constexpr Mat operator-(const Mat& a) { return a * T{-1}; }

    /// Branch-free: each entry sums all its terms in k order from +0. A
    /// zero factor times a finite one adds ±0, which leaves the sum's bits
    /// alone (a sum from +0 never rounds to −0); 0·inf and 0·NaN give NaN,
    /// as IEEE 754 requires.
    template <std::size_t C2>
    [[nodiscard]] constexpr Mat<R, C2, T> operator*(const Mat<C, C2, T>& b) const {
        Mat<R, C2, T> out;
        for (std::size_t i = 0; i < R; ++i) {
            for (std::size_t k = 0; k < C; ++k) {
                const T aik = (*this)(i, k);
                for (std::size_t j = 0; j < C2; ++j) out(i, j) += aik * b(k, j);
            }
        }
        return out;
    }

    [[nodiscard]] constexpr Mat<C, R, T> transposed() const {
        Mat<C, R, T> out;
        for (std::size_t i = 0; i < R; ++i)
            for (std::size_t j = 0; j < C; ++j) out(j, i) = (*this)(i, j);
        return out;
    }

    [[nodiscard]] constexpr T trace() const {
        static_assert(R == C, "trace requires a square matrix");
        T s{};
        for (std::size_t i = 0; i < R; ++i) s += (*this)(i, i);
        return s;
    }

    /// Frobenius norm.
    [[nodiscard]] T norm() const {
        T s{};
        for (const T x : a_) s += x * x;
        return std::sqrt(s);
    }

    /// Largest absolute element, for tolerance checks.
    [[nodiscard]] T max_abs() const {
        T m{};
        for (const T x : a_) m = std::max(m, std::abs(x));
        return m;
    }

    /// (this + this^T)/2, forcing exact symmetry after covariance updates.
    [[nodiscard]] constexpr Mat symmetrized() const {
        static_assert(R == C, "symmetrized requires a square matrix");
        Mat out;
        for (std::size_t i = 0; i < R; ++i)
            for (std::size_t j = 0; j < C; ++j)
                out(i, j) = ((*this)(i, j) + (*this)(j, i)) / T{2};
        return out;
    }

    [[nodiscard]] constexpr bool operator==(const Mat& o) const { return a_ == o.a_; }

    /// Submatrix extraction (compile-time shape, runtime offset).
    template <std::size_t R2, std::size_t C2>
    [[nodiscard]] constexpr Mat<R2, C2, T> block(std::size_t r0, std::size_t c0) const {
        if (r0 + R2 > R || c0 + C2 > C)
            throw std::out_of_range("Mat::block out of range");
        Mat<R2, C2, T> out;
        for (std::size_t i = 0; i < R2; ++i)
            for (std::size_t j = 0; j < C2; ++j) out(i, j) = (*this)(r0 + i, c0 + j);
        return out;
    }

    /// Write a smaller matrix into this one at (r0, c0).
    template <std::size_t R2, std::size_t C2>
    constexpr void set_block(std::size_t r0, std::size_t c0, const Mat<R2, C2, T>& m) {
        if (r0 + R2 > R || c0 + C2 > C)
            throw std::out_of_range("Mat::set_block out of range");
        for (std::size_t i = 0; i < R2; ++i)
            for (std::size_t j = 0; j < C2; ++j) (*this)(r0 + i, c0 + j) = m(i, j);
    }

    [[nodiscard]] std::string str() const {
        std::string s;
        for (std::size_t i = 0; i < R; ++i) {
            s += i == 0 ? "[" : " ";
            for (std::size_t j = 0; j < C; ++j) {
                s += std::to_string((*this)(i, j));
                if (j + 1 < C) s += ", ";
            }
            s += i + 1 < R ? ";\n" : "]";
        }
        return s;
    }

private:
    std::array<T, R * C> a_;
};

template <std::size_t N, typename T = double>
using Vec = Mat<N, 1, T>;

using Vec2 = Vec<2>;
using Vec3 = Vec<3>;
using Mat2 = Mat<2, 2>;
using Mat3 = Mat<3, 3>;

/// Dot product of equally sized vectors.
template <std::size_t N, typename T>
[[nodiscard]] constexpr T dot(const Vec<N, T>& a, const Vec<N, T>& b) {
    T s{};
    for (std::size_t i = 0; i < N; ++i) s += a[i] * b[i];
    return s;
}

/// Cross product (3-vectors only).
template <typename T>
[[nodiscard]] constexpr Vec<3, T> cross(const Vec<3, T>& a, const Vec<3, T>& b) {
    return Vec<3, T>{a[1] * b[2] - a[2] * b[1],
                     a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]};
}

/// Skew-symmetric cross-product matrix: skew(a)·b == cross(a, b).
template <typename T>
[[nodiscard]] constexpr Mat<3, 3, T> skew(const Vec<3, T>& a) {
    return Mat<3, 3, T>{T{}, -a[2], a[1],
                        a[2], T{}, -a[0],
                        -a[1], a[0], T{}};
}

/// Euclidean norm of a vector.
template <std::size_t N, typename T>
[[nodiscard]] T norm(const Vec<N, T>& v) {
    return std::sqrt(dot(v, v));
}

/// Unit vector in the direction of v; throws on (near-)zero input.
template <std::size_t N, typename T>
[[nodiscard]] Vec<N, T> normalized(const Vec<N, T>& v) {
    const T n = norm(v);
    if (!(n > T{0})) throw std::domain_error("normalized: zero vector");
    Vec<N, T> out = v;
    out *= T{1} / n;
    return out;
}

/// Outer product a·bᵀ.
template <std::size_t N, std::size_t M, typename T>
[[nodiscard]] constexpr Mat<N, M, T> outer(const Vec<N, T>& a, const Vec<M, T>& b) {
    Mat<N, M, T> out;
    for (std::size_t i = 0; i < N; ++i)
        for (std::size_t j = 0; j < M; ++j) out(i, j) = a[i] * b[j];
    return out;
}

/// In-place Gauss-Jordan inverse with partial pivoting. Throws
/// `std::domain_error` on a numerically singular input. Cost is O(N³) with
/// N ≤ 6 in this project, so no effort is spent on blocking.
template <std::size_t N, typename T>
[[nodiscard]] Mat<N, N, T> inverse(const Mat<N, N, T>& m) {
    Mat<N, N, T> a = m;
    Mat<N, N, T> inv = Mat<N, N, T>::identity();
    for (std::size_t col = 0; col < N; ++col) {
        // Partial pivot: find the largest magnitude entry on/below diagonal.
        std::size_t pivot = col;
        T best = std::abs(a(col, col));
        for (std::size_t r = col + 1; r < N; ++r) {
            const T mag = std::abs(a(r, col));
            if (mag > best) {
                best = mag;
                pivot = r;
            }
        }
        if (!(best > T{0})) throw std::domain_error("inverse: singular matrix");
        if (pivot != col) {
            for (std::size_t j = 0; j < N; ++j) {
                std::swap(a(pivot, j), a(col, j));
                std::swap(inv(pivot, j), inv(col, j));
            }
        }
        const T d = a(col, col);
        for (std::size_t j = 0; j < N; ++j) {
            a(col, j) /= d;
            inv(col, j) /= d;
        }
        for (std::size_t r = 0; r < N; ++r) {
            if (r == col) continue;
            const T f = a(r, col);
            if (f == T{}) continue;
            for (std::size_t j = 0; j < N; ++j) {
                a(r, j) -= f * a(col, j);
                inv(r, j) -= f * inv(col, j);
            }
        }
    }
    return inv;
}

/// Determinant via LU with partial pivoting.
template <std::size_t N, typename T>
[[nodiscard]] T determinant(const Mat<N, N, T>& m) {
    Mat<N, N, T> a = m;
    T det{1};
    for (std::size_t col = 0; col < N; ++col) {
        std::size_t pivot = col;
        T best = std::abs(a(col, col));
        for (std::size_t r = col + 1; r < N; ++r) {
            const T mag = std::abs(a(r, col));
            if (mag > best) {
                best = mag;
                pivot = r;
            }
        }
        if (!(best > T{0})) return T{};
        if (pivot != col) {
            for (std::size_t j = 0; j < N; ++j) std::swap(a(pivot, j), a(col, j));
            det = -det;
        }
        det *= a(col, col);
        for (std::size_t r = col + 1; r < N; ++r) {
            const T f = a(r, col) / a(col, col);
            for (std::size_t j = col; j < N; ++j) a(r, j) -= f * a(col, j);
        }
    }
    return det;
}

/// Lower-triangular Cholesky factor L with A = L·Lᵀ. Throws
/// `std::domain_error` if A is not (numerically) positive definite — the
/// test suite uses this as the canonical PSD check on Kalman covariances.
template <std::size_t N, typename T>
[[nodiscard]] Mat<N, N, T> cholesky(const Mat<N, N, T>& a) {
    Mat<N, N, T> l;
    for (std::size_t i = 0; i < N; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            T s = a(i, j);
            for (std::size_t k = 0; k < j; ++k) s -= l(i, k) * l(j, k);
            if (i == j) {
                if (!(s > T{0}))
                    throw std::domain_error("cholesky: not positive definite");
                l(i, i) = std::sqrt(s);
            } else {
                l(i, j) = s / l(j, j);
            }
        }
    }
    return l;
}

/// Solve A·x = b via the Gauss-Jordan inverse (adequate at these sizes).
template <std::size_t N, typename T>
[[nodiscard]] Vec<N, T> solve(const Mat<N, N, T>& a, const Vec<N, T>& b) {
    return inverse(a) * b;
}

}  // namespace ob::math
