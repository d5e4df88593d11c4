#include "core/adaptive_tuner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace ob::core {

void AdaptiveTunerConfig::validate() const {
    const auto fail = [](const char* what) {
        throw std::invalid_argument(std::string("AdaptiveTunerConfig: ") +
                                    what);
    };
    // All comparisons are in the negated `!(good)` form so a NaN knob
    // fails loudly instead of slipping through an ordinary `<`.
    for (const double knob : {floor_mps2, ceiling_mps2, raise_threshold,
                              lower_threshold, raise_factor, lower_factor}) {
        if (!std::isfinite(knob)) fail("every knob must be finite");
    }
    if (!(floor_mps2 > 0.0)) fail("noise floor must be positive");
    if (!(ceiling_mps2 >= floor_mps2))
        fail("ceiling must be at or above floor");
    if (!(raise_threshold > 0.0)) fail("raise threshold must be positive");
    if (!(lower_threshold >= 0.0)) fail("lower threshold must be non-negative");
    if (!(lower_threshold <= raise_threshold))
        fail("lower threshold must not exceed the raise threshold");
    if (!(raise_factor > 1.0)) fail("raise factor must exceed 1");
    if (!(lower_factor > 0.0) || !(lower_factor < 1.0))
        fail("lower factor must be in (0, 1)");
    if (window == 0) fail("decision window must be non-empty");
}

double AdaptiveNoiseTuner::observe(const math::Vec2& residual,
                                   const math::Vec2& sigma3,
                                   double current_sigma) {
    monitor_.add(residual, sigma3);
    ++since_change_;
    if (since_change_ < cfg_.min_samples) return -1.0;

    const double rate = monitor_.windowed_rate();
    if (rate > cfg_.raise_threshold) {
        const double next =
            std::min(current_sigma * cfg_.raise_factor, cfg_.ceiling_mps2);
        if (next > current_sigma) {
            since_change_ = 0;
            ++adjustments_;
            return next;
        }
    } else if (rate < cfg_.lower_threshold) {
        const double next =
            std::max(current_sigma * cfg_.lower_factor, cfg_.floor_mps2);
        if (next < current_sigma) {
            since_change_ = 0;
            ++adjustments_;
            return next;
        }
    }
    return -1.0;
}

}  // namespace ob::core
