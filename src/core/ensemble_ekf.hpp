#pragma once

#include <cstddef>
#include <vector>

#include "core/boresight_ekf.hpp"
#include "math/matrix.hpp"
#include "math/rotation.hpp"

namespace ob::core {

/// N boresight filters advanced in lockstep — the fusion half of the
/// batched ensemble (Realize) path. One Monte Carlo job runs N instrument
/// realizations of the same trace through identical control flow, so the
/// ensemble steps every lane through predict/update per epoch instead of
/// running N full scenario loops back to back.
///
/// Layout and vectorization: the lanes are contiguous (one std::vector, no
/// per-lane indirection), and the batched entry point `step_all` is the
/// seam a future transposed (state-major SoA) kernel would slot into.
/// The lane arithmetic itself deliberately reuses the scalar BoresightEkf:
/// every update runs one `dcm_from_euler` (six libm trig calls) and a
/// Joseph-form covariance update — 3×3 with biases off, 5×5 with
/// `estimate_bias` — whose FP operation order the scalar path pins, so
/// per-lane results are bit-identical to N independent filters by
/// construction — the determinism invariant the golden corpus and the
/// ensemble differential test enforce ("batched ≡ scalar per lane").
/// Cross-lane SIMD over the libm calls would break that invariant, which
/// is why the batching win here is locality and dispatch, not lane math.
class EnsembleEkf {
public:
    /// All lanes start from the same configuration (one job = one tuning);
    /// per-lane state diverges only through the measurements fed in.
    EnsembleEkf(const BoresightConfig& cfg, std::size_t lanes);

    [[nodiscard]] std::size_t lanes() const { return lanes_.size(); }

    /// One measurement update on a single lane (identical to
    /// BoresightEkf::step on the lane's filter).
    BoresightEkf::Update step(std::size_t lane, const math::Vec3& f_body,
                              const math::Vec2& f_sensor_xy) {
        return lanes_[lane].step(f_body, f_sensor_xy);
    }

    /// Batched epoch: advance every lane through its own measurement, in
    /// lane order. `f_body`, `z` and `out` are lane-indexed arrays of at
    /// least lanes() entries.
    void step_all(const math::Vec3* f_body, const math::Vec2* z,
                  BoresightEkf::Update* out);

    void set_measurement_noise(std::size_t lane, double sigma_mps2) {
        lanes_[lane].set_measurement_noise(sigma_mps2);
    }
    [[nodiscard]] double measurement_noise(std::size_t lane) const {
        return lanes_[lane].measurement_noise();
    }
    void grow_angle_covariance(std::size_t lane, double angle_variance) {
        lanes_[lane].grow_angle_covariance(angle_variance);
    }
    [[nodiscard]] math::EulerAngles misalignment(std::size_t lane) const {
        return lanes_[lane].misalignment();
    }
    [[nodiscard]] math::Vec3 misalignment_sigma3(std::size_t lane) const {
        return lanes_[lane].misalignment_sigma3();
    }
    [[nodiscard]] const BoresightEkf& lane(std::size_t i) const {
        return lanes_[i];
    }

private:
    std::vector<BoresightEkf> lanes_;
};

}  // namespace ob::core
