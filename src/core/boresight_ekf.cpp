#include "core/boresight_ekf.hpp"

namespace ob::core {

using math::EulerAngles;
using math::Mat;
using math::Vec2;
using math::Vec3;

namespace {

/// N×N diagonal: `angle` on the three angle states, `bias` on the rest.
template <std::size_t N>
[[nodiscard]] Mat<N, N> diagonal(double angle, double bias) {
    Mat<N, N> m;
    for (std::size_t i = 0; i < N; ++i) m(i, i) = i < 3 ? angle : bias;
    return m;
}

}  // namespace

template <std::size_t N>
BoresightEkf::Filter<N>::Filter(const BoresightConfig& cfg)
    : ekf(math::Vec<N>{},
          diagonal<N>(cfg.init_angle_sigma * cfg.init_angle_sigma,
                      cfg.init_bias_sigma * cfg.init_bias_sigma)),
      q(diagonal<N>(cfg.angle_process_noise * cfg.angle_process_noise,
                    cfg.bias_process_noise * cfg.bias_process_noise)) {}

BoresightEkf::BoresightEkf(const BoresightConfig& cfg)
    : cfg_(cfg),
      meas_sigma_(cfg.meas_noise_mps2),
      filter_(cfg.estimate_bias ? Filters{std::in_place_type<Filter<5>>, cfg}
                                : Filters{std::in_place_type<Filter<3>>, cfg}) {}

void BoresightEkf::reset() { *this = BoresightEkf(cfg_); }

Vec2 BoresightEkf::predict_measurement(const Vec3& rho_euler, const Vec2& bias,
                                       const Vec3& f_body) {
    const math::Mat3 c =
        math::dcm_from_euler(EulerAngles::from_vec(rho_euler));
    const Vec3 f_sensor = c * f_body;
    return Vec2{f_sensor[0] + bias[0], f_sensor[1] + bias[1]};
}

BoresightEkf::Update BoresightEkf::step_with_rates(const Vec3& f_body,
                                                   const Vec3& omega,
                                                   const Vec3& omega_dot,
                                                   const Vec2& f_sensor_xy) {
    const Vec3 lever = math::cross(omega_dot, cfg_.lever_arm) +
                       math::cross(omega, math::cross(omega, cfg_.lever_arm));
    return step(f_body + lever, f_sensor_xy);
}

BoresightEkf::Update BoresightEkf::step(const Vec3& f_body,
                                        const Vec2& f_sensor_xy) {
    return std::visit(
        [&](auto& f) { return step_filter(f, f_body, f_sensor_xy); }, filter_);
}

template <std::size_t N>
BoresightEkf::Update BoresightEkf::step_filter(Filter<N>& f,
                                               const Vec3& f_body,
                                               const Vec2& f_sensor_xy) {
    f.ekf.predict_static(f.q);

    const auto& x = f.ekf.state();
    const Vec3 rho{x[0], x[1], x[2]};
    Vec2 b{};  // no bias states: b stays +0
    if constexpr (N == 5) b = Vec2{x[3], x[4]};

    // One DCM evaluation serves both the predicted measurement and the
    // analytic Jacobian — same input bits, same result bits as computing
    // it twice (predict_measurement stays the reference model).
    const math::Mat3 c = math::dcm_from_euler(EulerAngles::from_vec(rho));
    const Vec3 f_rotated = c * f_body;
    const Vec2 z_pred{f_rotated[0] + b[0], f_rotated[1] + b[1]};

    Mat<2, N> h;
    if (cfg_.jacobian == JacobianMode::kAnalyticSmallAngle) {
        // Perturb the estimated rotation by a small rotation vector δ in
        // the sensor frame: C(ρ⊕δ) ≈ (I - [δ×]) C(ρ), so
        //   h(ρ⊕δ) ≈ h(ρ) + rows_xy(skew(C·f_b)) δ.
        // For misalignments of a few degrees the Euler-angle state and the
        // rotation-vector perturbation agree to first order.
        const math::Mat3 sk = math::skew(f_rotated);
        for (std::size_t r = 0; r < 2; ++r)
            for (std::size_t ccol = 0; ccol < 3; ++ccol) h(r, ccol) = sk(r, ccol);
    } else {
        // Central differences on the exact model, per Euler component.
        constexpr double kStep = 1e-6;
        for (std::size_t j = 0; j < 3; ++j) {
            Vec3 lo = rho, hi = rho;
            lo[j] -= kStep;
            hi[j] += kStep;
            const Vec2 dlo = predict_measurement(lo, b, f_body);
            const Vec2 dhi = predict_measurement(hi, b, f_body);
            for (std::size_t r = 0; r < 2; ++r)
                h(r, j) = (dhi[r] - dlo[r]) / (2.0 * kStep);
        }
    }
    if constexpr (N == 5) {
        // Bias columns: identity into the matching measurement axis.
        h(0, 3) = 1.0;
        h(1, 4) = 1.0;
    }
    Mat<2, 2> r;
    r(0, 0) = meas_sigma_ * meas_sigma_;
    r(1, 1) = meas_sigma_ * meas_sigma_;

    const auto res = f.ekf.update(f_sensor_xy, z_pred, h, r, cfg_.nis_gate);
    if (res.accepted) ++updates_;

    Update out;
    out.residual = res.innovation;
    out.sigma3 = Vec2{3.0 * std::sqrt(res.s(0, 0)), 3.0 * std::sqrt(res.s(1, 1))};
    out.nis = res.nis;
    out.used = res.accepted;
    return out;
}

EulerAngles BoresightEkf::misalignment() const {
    return std::visit(
        [](const auto& f) {
            const auto& x = f.ekf.state();
            return EulerAngles{x[0], x[1], x[2]};
        },
        filter_);
}

Vec3 BoresightEkf::misalignment_sigma3() const {
    return std::visit(
        [](const auto& f) {
            return Vec3{3.0 * f.ekf.sigma(0), 3.0 * f.ekf.sigma(1),
                        3.0 * f.ekf.sigma(2)};
        },
        filter_);
}

Vec2 BoresightEkf::bias() const {
    const auto* f = std::get_if<Filter<5>>(&filter_);
    return f ? Vec2{f->ekf.state()[3], f->ekf.state()[4]} : Vec2{};
}

Vec2 BoresightEkf::bias_sigma3() const {
    const auto* f = std::get_if<Filter<5>>(&filter_);
    return f ? Vec2{3.0 * f->ekf.sigma(3), 3.0 * f->ekf.sigma(4)} : Vec2{};
}

void BoresightEkf::set_measurement_noise(double sigma_mps2) {
    if (!(sigma_mps2 > 0.0))
        throw std::invalid_argument("measurement noise must be positive");
    meas_sigma_ = sigma_mps2;
}

void BoresightEkf::grow_angle_covariance(double angle_variance) {
    if (angle_variance < 0.0)
        throw std::invalid_argument("coast variance must be non-negative");
    if (angle_variance == 0.0) return;
    std::visit(
        [angle_variance](auto& f) {
            auto p = f.ekf.covariance();
            for (std::size_t i = 0; i < 3; ++i) p(i, i) += angle_variance;
            f.ekf.set_covariance(p);
        },
        filter_);
}

}  // namespace ob::core
