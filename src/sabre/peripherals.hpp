#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sabre/isa.hpp"
#include "softfloat/softfloat.hpp"
#include "util/ring_buffer.hpp"

namespace ob::sabre {

/// A device on the Sabre's memory-mapped peripheral bus. Offsets are byte
/// offsets within the device's window; accesses are always 32-bit.
class Peripheral {
public:
    virtual ~Peripheral() = default;
    [[nodiscard]] virtual std::uint32_t read(std::uint32_t offset) = 0;
    virtual void write(std::uint32_t offset, std::uint32_t value) = 0;
};

/// The bus fabric of Figure 6: fixed-size windows, Sabre as bus master.
/// Unmapped accesses throw (the hardware would bus-error).
///
/// Window decode is a flat table indexed by address/kWindowBytes, not a
/// map search: the firmware reaches the bus on every peripheral lw/sw
/// (four per FPU operation), so device lookup sits on the ISS hot path
/// alongside the predecoded dispatch table.
class FpuPeripheral;

class SabreBus {
public:
    static constexpr std::uint32_t kWindowBytes = 0x100;

    /// Attach a device at `base` (offset from the peripheral region start,
    /// must be window-aligned).
    void attach(std::uint32_t base, std::shared_ptr<Peripheral> dev);

    // Defined after FpuPeripheral below: the FPU window gets a
    // devirtualized fast lane (the firmware has no hardware FPU, so every
    // flop is four bus transactions — by far the hottest device).
    [[nodiscard]] std::uint32_t read(std::uint32_t address);
    void write(std::uint32_t address, std::uint32_t value);

    /// Fast-lane routing state for the CPU's batched executor: the bus
    /// topology is frozen after construction, so the executor may cache
    /// these across a whole run. Null/size-max until an FPU is attached.
    [[nodiscard]] FpuPeripheral* fpu() const { return fpu_; }
    [[nodiscard]] std::uint32_t fpu_window() const { return fpu_window_; }

private:
    [[nodiscard]] Peripheral& device_at(std::uint32_t address) {
        const std::uint32_t window = address / kWindowBytes;
        if (window >= windows_.size() || windows_[window] == nullptr)
            throw std::out_of_range("SabreBus: no device at address");
        return *windows_[window];
    }
    std::vector<Peripheral*> windows_;  ///< flat decode, parallel to owners_
    std::vector<std::shared_ptr<Peripheral>> owners_;
    FpuPeripheral* fpu_ = nullptr;  ///< non-null once an FPU is attached
    std::uint32_t fpu_window_ = 0xFFFFFFFFu;
};

// --- Concrete peripherals (the blocks of Figures 6/7) ------------------------

/// Conventional base offsets within the peripheral region.
namespace periph {
inline constexpr std::uint32_t kLeds = 0x000;
inline constexpr std::uint32_t kSwitches = 0x100;
inline constexpr std::uint32_t kTouchscreen = 0x200;
inline constexpr std::uint32_t kGui = 0x300;
inline constexpr std::uint32_t kUartDmu = 0x400;
inline constexpr std::uint32_t kUartAcc = 0x500;
inline constexpr std::uint32_t kControl = 0x600;
inline constexpr std::uint32_t kFpu = 0x700;
inline constexpr std::uint32_t kCounter = 0x800;
inline constexpr std::uint32_t kDmuPort = 0x900;
inline constexpr std::uint32_t kAccPort = 0xA00;
}  // namespace periph

/// SabreBusLEDsRun: write-to-set LED bank, readable back.
class LedsPeripheral final : public Peripheral {
public:
    std::uint32_t read(std::uint32_t) override { return state_; }
    void write(std::uint32_t, std::uint32_t value) override { state_ = value; }
    [[nodiscard]] std::uint32_t state() const { return state_; }

private:
    std::uint32_t state_ = 0;
};

/// SabreBusSwitchesRun: host-settable input switches.
class SwitchesPeripheral final : public Peripheral {
public:
    std::uint32_t read(std::uint32_t) override { return state_; }
    void write(std::uint32_t, std::uint32_t) override {}  // read-only
    void set(std::uint32_t v) { state_ = v; }

private:
    std::uint32_t state_ = 0;
};

/// SabreBusTouchScreenRun: x (offset 0), y (4), pressed (8).
class TouchscreenPeripheral final : public Peripheral {
public:
    std::uint32_t read(std::uint32_t offset) override;
    void write(std::uint32_t, std::uint32_t) override {}
    void touch(std::uint32_t x, std::uint32_t y, bool pressed);

private:
    std::uint32_t x_ = 0, y_ = 0, pressed_ = 0;
};

/// SabreGuiRun: minimal display-list device — the firmware writes line
/// segments (x0,y0,x1,y1,color then a command strobe) that the host/GUI
/// side can render. We record the display list for inspection.
class GuiPeripheral final : public Peripheral {
public:
    struct Line {
        std::int32_t x0, y0, x1, y1;
        std::uint32_t color;
    };
    std::uint32_t read(std::uint32_t offset) override;
    void write(std::uint32_t offset, std::uint32_t value) override;
    [[nodiscard]] const std::vector<Line>& lines() const { return lines_; }
    void clear() { lines_.clear(); }

private:
    std::array<std::uint32_t, 5> reg_{};
    std::vector<Line> lines_;
};

/// SabreRS232Run: byte FIFO UART endpoint. Offset 0: status (bit0 =
/// rx-available, bit1 = tx-ready); offset 4: rx pop; offset 8: tx push.
class UartPeripheral final : public Peripheral {
public:
    std::uint32_t read(std::uint32_t offset) override;
    void write(std::uint32_t offset, std::uint32_t value) override;

    /// Host side: push a byte into the Sabre's receive FIFO.
    void host_push(std::uint8_t byte) { rx_.push_back(byte); }
    /// Host side: drain bytes the firmware transmitted.
    [[nodiscard]] std::vector<std::uint8_t> host_drain();

private:
    ob::util::RingBuffer<std::uint8_t> rx_;
    std::vector<std::uint8_t> tx_;
};

/// SabreControlRun: the memory-mapped registers of §10 that carry
/// roll/pitch/yaw (Q16.16 fixed point) plus status flags straight to the
/// FPGA video block — extended with the host-writable measurement-noise
/// register and the innovation 3-sigma outputs the adaptive retune loop
/// consumes (§11: the R the filter assumes must rise once the vehicle
/// moves).
class ControlPeripheral final : public Peripheral {
public:
    static constexpr std::size_t kRegisters = 15;
    enum Reg : std::uint32_t {
        kRoll = 0,       // Q16.16 radians
        kPitch = 1,
        kYaw = 2,
        kRollSigma3 = 3,
        kPitchSigma3 = 4,
        kYawSigma3 = 5,
        kStatus = 6,     // bit0: estimate valid
        kUpdateCount = 7,
        kResidualX = 8,  // Q16.16 m/s^2
        kResidualY = 9,
        kHeartbeat = 10,
        kScratch = 11,
        /// Host-writable measurement-noise variance, raw IEEE binary32
        /// bits (Q16.16 would quantize R² ≈ 1e-5 to zero). The firmware
        /// latches it into its Kalman R cell at the top of every update,
        /// so a retune applies from the next epoch — the runtime register
        /// the paper's manual §11 retune lacked.
        kMeasNoiseVar = 12,
        kInnovSigma3X = 13,  // Q16.16 innovation 3-sigma, m/s^2
        kInnovSigma3Y = 14,
    };

    std::uint32_t read(std::uint32_t offset) override;
    void write(std::uint32_t offset, std::uint32_t value) override;

    [[nodiscard]] std::uint32_t reg(Reg r) const {
        return regs_[static_cast<std::size_t>(r)];
    }
    /// Angles as doubles (Q16.16 -> radians), the video block's view.
    [[nodiscard]] double angle(Reg r) const {
        return static_cast<double>(
                   static_cast<std::int32_t>(regs_[static_cast<std::size_t>(r)])) /
               65536.0;
    }

private:
    std::array<std::uint32_t, kRegisters> regs_{};
};

/// Smart floating-point peripheral. Sabre has no FPU; the paper emulated
/// IEEE arithmetic with the Softfloat library in software. Following the
/// paper's "peripherals are designed to be as smart as possible" principle
/// this build moves that emulation into a bus peripheral backed by our
/// softfloat library — same IEEE-754 semantics, one bus transaction per
/// operand/result instead of a software subroutine. The library computes
/// add/sub/mul/div/sqrt on the host FPU where that is provably bit-exact
/// and in integer arithmetic elsewhere; results and flags are the same
/// either way.
///
/// Protocol: write operands to A (0x0) and B (0x4), write the opcode to
/// CMD (0x8) which executes immediately; read RESULT (0xC) and FLAGS
/// (0x10). Flags accumulate until cleared by writing FLAGS. The CPU's
/// batched executor may run a whole firmware protocol sequence as one
/// fused op (see DecodedProgram); it drives these same registers, so the
/// latches, flags and operations() end exactly as stepping leaves them.
class FpuPeripheral final : public Peripheral {
public:
    enum Cmd : std::uint32_t {
        kAdd = 0,
        kSub = 1,
        kMul = 2,
        kDiv = 3,
        kSqrt = 4,   // operand A only
        kI2F = 5,    // int32 A -> float
        kF2I = 6,    // float A -> int32 (round to nearest even)
        kCmpLt = 7,  // result = (A < B)
        kCmpLe = 8,
        kCmpEq = 9,
        kNeg = 10,
        kAbs = 11,
    };

    std::uint32_t read(std::uint32_t offset) override {
        switch (offset) {
            case 0x0: return a_;
            case 0x4: return b_;
            case 0xC: return result_;
            case 0x10: return ctx_.flags;
            default: return 0;
        }
    }
    void write(std::uint32_t offset, std::uint32_t value) override {
        switch (offset) {
            case 0x0: a_ = value; return;
            case 0x4: b_ = value; return;
            case 0x8: execute(value); return;
            case 0x10: ctx_.flags = value; return;
            default: return;
        }
    }

    [[nodiscard]] std::uint64_t operations() const { return ops_; }

private:
    /// Run one command against the latched operands. Defined inline at
    /// the end of this header: the boresight firmware issues ~185 FPU
    /// commands per epoch, and keeping the command switch inline on the
    /// bus fast lane leaves the softfloat call as the only out-of-line
    /// step per operation.
    void execute(std::uint32_t cmd);

    std::uint32_t a_ = 0;
    std::uint32_t b_ = 0;
    std::uint32_t result_ = 0;
    softfloat::Context ctx_;
    std::uint64_t ops_ = 0;
};

/// Free-running cycle counter (read-only), driven by the CPU.
class CounterPeripheral final : public Peripheral {
public:
    std::uint32_t read(std::uint32_t) override {
        return static_cast<std::uint32_t>(*cycles_);
    }
    void write(std::uint32_t, std::uint32_t) override {}
    explicit CounterPeripheral(const std::uint64_t* cycles) : cycles_(cycles) {}

private:
    const std::uint64_t* cycles_;
};

/// Smart DMU port: the fabric-side CAN/serial deframing (tested separately
/// in ob::comm) delivers whole samples; the firmware reads sign-extended
/// registers. Offset 0: status (1 = sample available); 4..24: gx,gy,gz,
/// ax,ay,az (int32); 28: seq; writing any value to 0 pops the sample.
class DmuPortPeripheral final : public Peripheral {
public:
    struct Sample {
        std::array<std::int32_t, 3> gyro{};
        std::array<std::int32_t, 3> accel{};
        std::uint32_t seq = 0;
    };

    std::uint32_t read(std::uint32_t offset) override;
    void write(std::uint32_t offset, std::uint32_t value) override;
    void host_push(const Sample& s) { fifo_.push_back(s); }
    [[nodiscard]] std::size_t pending() const { return fifo_.size(); }

private:
    ob::util::RingBuffer<Sample> fifo_;
};

/// Smart ACC port: duty-cycle timings, pre-deframed. Offset 0: status;
/// 4: t1x; 8: t1y; 12: t2; 16: seq; write 0 to pop.
class AccPortPeripheral final : public Peripheral {
public:
    struct Sample {
        std::uint32_t t1x = 0, t1y = 0, t2 = 1, seq = 0;
    };

    std::uint32_t read(std::uint32_t offset) override;
    void write(std::uint32_t offset, std::uint32_t value) override;
    void host_push(const Sample& s) { fifo_.push_back(s); }
    [[nodiscard]] std::size_t pending() const { return fifo_.size(); }

private:
    ob::util::RingBuffer<Sample> fifo_;
};

// SabreBus access: flat window decode, with the FPU window checked first
// and dispatched without the vtable — FpuPeripheral is final and fully
// visible here, so operand latches and result reads inline straight into
// the CPU's load/store handlers. Every other device takes the generic
// virtual path.
inline std::uint32_t SabreBus::read(std::uint32_t address) {
    const std::uint32_t window = address / kWindowBytes;
    if (window == fpu_window_)
        return fpu_->FpuPeripheral::read(address & (kWindowBytes - 1));
    return device_at(address).read(address & (kWindowBytes - 1));
}

inline void SabreBus::write(std::uint32_t address, std::uint32_t value) {
    const std::uint32_t window = address / kWindowBytes;
    if (window == fpu_window_) {
        fpu_->FpuPeripheral::write(address & (kWindowBytes - 1), value);
        return;
    }
    device_at(address).write(address & (kWindowBytes - 1), value);
}

inline void FpuPeripheral::execute(std::uint32_t value) {
    namespace sf = ob::softfloat;
    const sf::F32 a{a_};
    const sf::F32 b{b_};
    ++ops_;
    switch (static_cast<Cmd>(value)) {
        case kAdd: result_ = sf::add(a, b, ctx_).bits; break;
        case kSub: result_ = sf::sub(a, b, ctx_).bits; break;
        case kMul: result_ = sf::mul(a, b, ctx_).bits; break;
        case kDiv: result_ = sf::div(a, b, ctx_).bits; break;
        case kSqrt: result_ = sf::sqrt(a, ctx_).bits; break;
        case kI2F:
            result_ = sf::from_i32(static_cast<std::int32_t>(a_), ctx_).bits;
            break;
        case kF2I:
            result_ = static_cast<std::uint32_t>(sf::to_i32(a, ctx_));
            break;
        case kCmpLt: result_ = sf::lt(a, b, ctx_) ? 1 : 0; break;
        case kCmpLe: result_ = sf::le(a, b, ctx_) ? 1 : 0; break;
        case kCmpEq: result_ = sf::eq(a, b, ctx_) ? 1 : 0; break;
        case kNeg: result_ = sf::neg(a).bits; break;
        case kAbs: result_ = sf::abs(a).bits; break;
        default:
            --ops_;
            throw std::invalid_argument("FpuPeripheral: unknown command");
    }
}

}  // namespace ob::sabre
