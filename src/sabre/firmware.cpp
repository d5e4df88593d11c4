#include "sabre/firmware.hpp"

#include <sstream>

#include "sabre/peripherals.hpp"

namespace ob::sabre {

namespace {

/// Tiny assembly emitter: the "compiler backend" for the firmware. r1
/// permanently holds the peripheral base; r2/r3 are scratch.
class Emitter {
public:
    explicit Emitter(const FirmwareLayout& l) : l_(l) {}

    void raw(const std::string& line) { out_ << line << '\n'; }
    void ins(const std::string& text) { out_ << "  " << text << '\n'; }
    void label(const std::string& name) { out_ << name << ":\n"; }

    [[nodiscard]] std::string fresh_label(const std::string& stem) {
        return stem + "_" + std::to_string(counter_++);
    }

    /// dst_float = a_float OP b_float through the FPU peripheral. The
    /// instruction shapes of fpu2/fpu1 are what DecodedProgram marks for
    /// fused execution (cpu.hpp); sabre_dispatch_test pins how many match.
    void fpu2(std::uint32_t dst, std::uint32_t a, std::uint32_t b,
              FpuPeripheral::Cmd cmd) {
        load_to_fpu_a(a);
        ins("lw r2, " + std::to_string(b) + "(zero)");
        ins("sw r2, " + off(periph::kFpu + 0x4) + "(r1)");
        exec_and_store(dst, cmd);
    }

    /// dst_float = OP(a_float) (sqrt/neg/abs/f2i/i2f).
    void fpu1(std::uint32_t dst, std::uint32_t a, FpuPeripheral::Cmd cmd) {
        load_to_fpu_a(a);
        exec_and_store(dst, cmd);
    }

    void fadd(std::uint32_t d, std::uint32_t a, std::uint32_t b) {
        fpu2(d, a, b, FpuPeripheral::kAdd);
    }
    void fsub(std::uint32_t d, std::uint32_t a, std::uint32_t b) {
        fpu2(d, a, b, FpuPeripheral::kSub);
    }
    void fmul(std::uint32_t d, std::uint32_t a, std::uint32_t b) {
        fpu2(d, a, b, FpuPeripheral::kMul);
    }
    void fdiv(std::uint32_t d, std::uint32_t a, std::uint32_t b) {
        fpu2(d, a, b, FpuPeripheral::kDiv);
    }

    /// dst_float = float(peripheral register at periph_offset), i.e. read
    /// a raw integer register and convert via I2F.
    void int_reg_to_float(std::uint32_t dst, std::uint32_t periph_offset) {
        ins("lw r2, " + off(periph_offset) + "(r1)");
        ins("sw r2, " + off(periph::kFpu + 0x0) + "(r1)");
        exec_and_store(dst, FpuPeripheral::kI2F);
    }

    /// Publish float at `src` as Q16.16 into control register `reg_index`.
    void float_to_control_q16(std::uint32_t src, std::uint32_t reg_index) {
        fmul(l_.tmp, src, l_.fix_one);
        load_to_fpu_a(l_.tmp);
        ins("addi r2, zero, " + std::to_string(FpuPeripheral::kF2I));
        ins("sw r2, " + off(periph::kFpu + 0x8) + "(r1)");
        ins("lw r2, " + off(periph::kFpu + 0xC) + "(r1)");
        ins("sw r2, " + off(periph::kControl + 4 * reg_index) + "(r1)");
    }

    [[nodiscard]] std::string source() const { return out_.str(); }

    [[nodiscard]] const FirmwareLayout& layout() const { return l_; }

private:
    [[nodiscard]] static std::string off(std::uint32_t v) {
        return std::to_string(v);
    }

    void load_to_fpu_a(std::uint32_t a) {
        ins("lw r2, " + std::to_string(a) + "(zero)");
        ins("sw r2, " + off(periph::kFpu + 0x0) + "(r1)");
    }

    void exec_and_store(std::uint32_t dst, FpuPeripheral::Cmd cmd) {
        ins("addi r2, zero, " + std::to_string(static_cast<int>(cmd)));
        ins("sw r2, " + off(periph::kFpu + 0x8) + "(r1)");
        ins("lw r2, " + off(periph::kFpu + 0xC) + "(r1)");
        ins("sw r2, " + std::to_string(dst) + "(zero)");
    }

    const FirmwareLayout& l_;
    std::ostringstream out_;
    int counter_ = 0;
};

}  // namespace

std::string boresight_firmware_source(const FirmwareLayout& l) {
    Emitter e(l);
    const auto fx = [&](int i) { return l.x + 4u * static_cast<unsigned>(i); };
    const auto fp = [&](int r, int c) {
        return l.p + 4u * static_cast<unsigned>(3 * r + c);
    };
    const auto ff = [&](int i) { return l.f + 4u * static_cast<unsigned>(i); };
    const auto fz = [&](int i) { return l.z + 4u * static_cast<unsigned>(i); };
    const auto fzp = [&](int i) { return l.zp + 4u * static_cast<unsigned>(i); };
    const auto fpht = [&](int r, int c) {
        return l.pht + 4u * static_cast<unsigned>(2 * r + c);
    };
    const auto fs = [&](int r, int c) {
        return l.s + 4u * static_cast<unsigned>(2 * r + c);
    };
    const auto fsinv = [&](int r, int c) {
        return l.sinv + 4u * static_cast<unsigned>(2 * r + c);
    };
    const auto fk = [&](int r, int c) {
        return l.k + 4u * static_cast<unsigned>(2 * r + c);
    };
    const auto fnu = [&](int i) { return l.nu + 4u * static_cast<unsigned>(i); };
    const auto fnewp = [&](int r, int c) {
        return l.newp + 4u * static_cast<unsigned>(3 * r + c);
    };
    const std::uint32_t t0 = l.tmp, t1 = l.tmp + 4, t2 = l.tmp + 8,
                        t3 = l.tmp + 12;
    const std::uint32_t nf2 = l.nf, nf0 = l.nf + 4;

    e.raw("; Sabre-32 boresight fusion firmware (generated)");
    e.raw("; r1 = peripheral base; r2/r3 scratch");
    e.ins("lui r1, 0x20000        ; 0x80000000 peripheral window");

    e.label("main_loop");
    // Wait for a DMU sample.
    e.label("wait_dmu");
    e.ins("lw r2, " + std::to_string(periph::kDmuPort) + "(r1)");
    e.ins("beq r2, zero, wait_dmu");
    // Wait for an ACC sample.
    e.label("wait_acc");
    e.ins("lw r2, " + std::to_string(periph::kAccPort) + "(r1)");
    e.ins("beq r2, zero, wait_acc");

    // Latch the host-writable measurement-noise register (float bits of
    // the R variance) into the Kalman R cell: the adaptive retune loop
    // takes effect from this update on. With the host never writing, the
    // register still holds the boot value, so the math is bit-identical
    // to the fixed-R firmware.
    e.ins("lw r2, " + std::to_string(periph::kControl +
                                     4 * ControlPeripheral::kMeasNoiseVar) +
          "(r1)");
    e.ins("sw r2, " + std::to_string(l.r) + "(zero)");

    // --- Decode DMU accelerometers to SI floats: F[i] = raw * accel_lsb.
    for (int i = 0; i < 3; ++i) {
        e.int_reg_to_float(t0, periph::kDmuPort + 16 + 4u * static_cast<unsigned>(i));
        e.fmul(ff(i), t0, l.accel_lsb);
    }
    e.ins("sw zero, " + std::to_string(periph::kDmuPort) + "(r1)  ; pop");

    // --- Decode ACC duty cycles: Z[i] = (t1/t2 - 0.5) * duty_scale.
    e.int_reg_to_float(t1, periph::kAccPort + 12);  // t2 (shared)
    for (int i = 0; i < 2; ++i) {
        e.int_reg_to_float(t0, periph::kAccPort + 4 + 4u * static_cast<unsigned>(i));
        e.fdiv(t2, t0, t1);
        e.fsub(t2, t2, l.half);
        e.fmul(fz(i), t2, l.duty_scale);
    }
    e.ins("sw zero, " + std::to_string(periph::kAccPort) + "(r1)  ; pop");

    // --- Kalman predict: P[ii] += Q.
    for (int i = 0; i < 3; ++i) e.fadd(fp(i, i), fp(i, i), l.q);

    // --- Negated force components used by H.
    e.fpu1(nf2, ff(2), FpuPeripheral::kNeg);
    e.fpu1(nf0, ff(0), FpuPeripheral::kNeg);

    // --- Predicted measurement (small-angle model):
    //   zp0 = f0 - f2*x1 + f1*x2
    //   zp1 = f1 + f2*x0 - f0*x2
    e.fmul(t0, ff(2), fx(1));
    e.fsub(t2, ff(0), t0);
    e.fmul(t0, ff(1), fx(2));
    e.fadd(fzp(0), t2, t0);
    e.fmul(t0, ff(2), fx(0));
    e.fadd(t2, ff(1), t0);
    e.fmul(t0, ff(0), fx(2));
    e.fsub(fzp(1), t2, t0);

    // --- PHT = P * H^T with H = [[0,-f2,f1],[f2,0,-f0]].
    for (int i = 0; i < 3; ++i) {
        e.fmul(t0, fp(i, 1), nf2);
        e.fmul(t1, fp(i, 2), ff(1));
        e.fadd(fpht(i, 0), t0, t1);
        e.fmul(t0, fp(i, 0), ff(2));
        e.fmul(t1, fp(i, 2), nf0);
        e.fadd(fpht(i, 1), t0, t1);
    }

    // --- S = H*PHT + R*I.
    e.fmul(t0, nf2, fpht(1, 0));
    e.fmul(t1, ff(1), fpht(2, 0));
    e.fadd(t2, t0, t1);
    e.fadd(fs(0, 0), t2, l.r);
    e.fmul(t0, nf2, fpht(1, 1));
    e.fmul(t1, ff(1), fpht(2, 1));
    e.fadd(fs(0, 1), t0, t1);
    e.fmul(t0, ff(2), fpht(0, 0));
    e.fmul(t1, nf0, fpht(2, 0));
    e.fadd(fs(1, 0), t0, t1);
    e.fmul(t0, ff(2), fpht(0, 1));
    e.fmul(t1, nf0, fpht(2, 1));
    e.fadd(t2, t0, t1);
    e.fadd(fs(1, 1), t2, l.r);

    // --- 2x2 inverse: det = s00*s11 - s01*s10.
    e.fmul(t0, fs(0, 0), fs(1, 1));
    e.fmul(t1, fs(0, 1), fs(1, 0));
    e.fsub(t3, t0, t1);  // det
    e.fdiv(fsinv(0, 0), fs(1, 1), t3);
    e.fdiv(fsinv(1, 1), fs(0, 0), t3);
    e.fdiv(t0, fs(0, 1), t3);
    e.fpu1(fsinv(0, 1), t0, FpuPeripheral::kNeg);
    e.fdiv(t0, fs(1, 0), t3);
    e.fpu1(fsinv(1, 0), t0, FpuPeripheral::kNeg);

    // --- K = PHT * SINV.
    for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 2; ++j) {
            e.fmul(t0, fpht(i, 0), fsinv(0, j));
            e.fmul(t1, fpht(i, 1), fsinv(1, j));
            e.fadd(fk(i, j), t0, t1);
        }
    }

    // --- Innovation nu = z - zp; publish residual to control registers.
    e.fsub(fnu(0), fz(0), fzp(0));
    e.fsub(fnu(1), fz(1), fzp(1));
    e.float_to_control_q16(fnu(0), ControlPeripheral::kResidualX);
    e.float_to_control_q16(fnu(1), ControlPeripheral::kResidualY);

    // --- Innovation 3-sigma envelope (3*sqrt(S_ii)) for the host-side
    // adaptive tuner: the exceedance statistic the §11 retune watches.
    e.fpu1(t0, fs(0, 0), FpuPeripheral::kSqrt);
    e.fmul(t0, t0, l.three);
    e.float_to_control_q16(t0, ControlPeripheral::kInnovSigma3X);
    e.fpu1(t0, fs(1, 1), FpuPeripheral::kSqrt);
    e.fmul(t0, t0, l.three);
    e.float_to_control_q16(t0, ControlPeripheral::kInnovSigma3Y);

    // --- State update x += K*nu.
    for (int i = 0; i < 3; ++i) {
        e.fmul(t0, fk(i, 0), fnu(0));
        e.fmul(t1, fk(i, 1), fnu(1));
        e.fadd(t2, t0, t1);
        e.fadd(fx(i), fx(i), t2);
    }

    // --- Covariance update P -= K * PHT^T (simple form; the fabric-side
    // double-precision reference uses Joseph form, see DESIGN.md).
    for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 3; ++j) {
            e.fmul(t0, fk(i, 0), fpht(j, 0));
            e.fmul(t1, fk(i, 1), fpht(j, 1));
            e.fadd(t2, t0, t1);
            e.fsub(fnewp(i, j), fp(i, j), t2);
        }
    }
    // Symmetrize: P = (newP + newP^T)/2.
    for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 3; ++j) {
            e.fadd(t0, fnewp(i, j), fnewp(j, i));
            e.fmul(fp(i, j), t0, l.half);
        }
    }

    // --- Publish estimates and 3-sigma to the control block (Q16.16).
    e.float_to_control_q16(fx(0), ControlPeripheral::kRoll);
    e.float_to_control_q16(fx(1), ControlPeripheral::kPitch);
    e.float_to_control_q16(fx(2), ControlPeripheral::kYaw);
    for (int i = 0; i < 3; ++i) {
        e.fpu1(t0, fp(i, i), FpuPeripheral::kSqrt);
        e.fmul(t0, t0, l.three);
        e.float_to_control_q16(
            t0, ControlPeripheral::kRollSigma3 + static_cast<std::uint32_t>(i));
    }

    // Status = 1, update counter += 1, heartbeat += 1.
    e.ins("addi r2, zero, 1");
    e.ins("sw r2, " + std::to_string(periph::kControl +
                                      4 * ControlPeripheral::kStatus) + "(r1)");
    e.ins("lw r2, " + std::to_string(periph::kControl +
                                      4 * ControlPeripheral::kUpdateCount) +
          "(r1)");
    e.ins("addi r2, r2, 1");
    e.ins("sw r2, " + std::to_string(periph::kControl +
                                      4 * ControlPeripheral::kUpdateCount) +
          "(r1)");
    e.ins("j main_loop");

    return e.source();
}

std::shared_ptr<const DecodedProgram> boresight_firmware_image(
    const FirmwareLayout& layout) {
    if (layout == FirmwareLayout{}) {
        // Function-local static: the one-shot assemble + predecode of the
        // production firmware is thread-safe and shared for process
        // lifetime (fleet workers construct CPUs concurrently).
        static const std::shared_ptr<const DecodedProgram> cached =
            std::make_shared<const DecodedProgram>(
                assemble(boresight_firmware_source()));
        return cached;
    }
    return std::make_shared<const DecodedProgram>(
        assemble(boresight_firmware_source(layout)));
}

}  // namespace ob::sabre
