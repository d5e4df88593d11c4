// Video boresight correction: the paper's visualization demo. A camera
// mounted a few degrees off produces a rotated/shifted image; the fusion
// filter estimates the misalignment from inertial data alone, and the
// fixed-point affine pipeline (Figures 3/5) re-aligns the video.
//
// Writes three PPM frames: the true scene, the misaligned camera view and
// the corrected output, and reports PSNR before/after.

#include <cstdio>

#include "math/rotation.hpp"
#include "system/fleet.hpp"
#include "util/artifacts.hpp"
#include "video/affine.hpp"
#include "video/video_system.hpp"

using namespace ob;

int main() {
    const math::EulerAngles truth = math::EulerAngles::from_deg(4.0, 1.0, -1.2);
    const double focal_px = 300.0;

    // --- Estimate the misalignment from inertial data (no vision used).
    system::FleetJob job;
    job.scenario = "static-tilted";
    job.base_seed = 7;
    job.duration_s = 300.0;
    job.misalignment = truth;
    job.calibration = system::FleetCalibration{60.0};
    const math::EulerAngles est =
        system::run_fleet_job(job).primary().result.estimate;
    std::printf("estimated misalignment: roll %+0.3f pitch %+0.3f yaw %+0.3f "
                "deg (truth %+0.1f %+0.1f %+0.1f)\n",
                math::rad2deg(est.roll), math::rad2deg(est.pitch),
                math::rad2deg(est.yaw), 4.0, 1.0, -1.2);

    // --- Render the optical chain.
    const video::Frame scene = video::make_test_pattern(320, 240);
    const video::Frame camera =
        video::simulate_misaligned_camera(scene, truth, focal_px);

    video::VideoSystem vs({.width = 320, .height = 240, .focal_px = focal_px});
    vs.set_angle_provider([&] { return est; });
    const auto corrected = vs.process_frame(camera);

    const double before = camera.psnr_against(scene);
    const double after = corrected.display.psnr_against(scene);
    std::printf("PSNR vs true scene: misaligned %.2f dB -> corrected %.2f dB\n",
                before, after);
    std::printf("video pipeline: %llu cycles/frame = %.1f fps at 25.175 MHz\n",
                static_cast<unsigned long long>(corrected.timing.cycles),
                corrected.timing.fps());

    const std::string scene_path = util::artifact_path("video_scene.ppm");
    const std::string camera_path = util::artifact_path("video_misaligned.ppm");
    const std::string corrected_path = util::artifact_path("video_corrected.ppm");
    scene.write_ppm(scene_path);
    camera.write_ppm(camera_path);
    corrected.display.write_ppm(corrected_path);
    std::printf("wrote %s, %s, %s\n", scene_path.c_str(), camera_path.c_str(),
                corrected_path.c_str());
    return after > before + 3.0 ? 0 : 1;
}
