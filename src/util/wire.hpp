#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ob::util {

/// Canonical little-endian byte codec shared by every externally-visible
/// binary format in the tree: the fleet shard artifact
/// (`system/fleet_shard.hpp`) and the fleet_serve wire protocol
/// (`system/fleet_protocol.hpp`, spec in docs/PROTOCOL.md). One encoding
/// with explicit widths means "bitwise identical" claims about those
/// formats are claims about these few functions — doubles travel as their
/// IEEE-754 bit patterns, never through text round-trips.
class ByteWriter {
public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v) { put_le(v, 2); }
    void u32(std::uint32_t v) { put_le(v, 4); }
    void u64(std::uint64_t v) { put_le(v, 8); }
    void f64(double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }
    void boolean(bool v) { u8(v ? 1 : 0); }

    /// Raw bytes, no length prefix (fixed-size fields).
    /// A zero-length write is a no-op (an empty payload's data() may be null,
    /// which memcpy must never see).
    void bytes(const void* data, std::size_t n) {
        if (n == 0) return;
        const std::size_t at = buf_.size();
        buf_.resize(at + n);
        std::memcpy(buf_.data() + at, data, n);
    }

    /// Length-prefixed (u32) string.
    void str(std::string_view s);

    /// Fixed-width char field: the string NUL-padded to `width` bytes.
    /// Throws std::invalid_argument when the string does not fit (the
    /// protocol's fixed-size frames must never silently truncate).
    void fixed_str(std::string_view s, std::size_t width);

    [[nodiscard]] const std::vector<std::uint8_t>& data() const {
        return buf_;
    }
    [[nodiscard]] std::size_t size() const { return buf_.size(); }
    [[nodiscard]] std::string take_string() const {
        return std::string(reinterpret_cast<const char*>(buf_.data()),
                           buf_.size());
    }

private:
    void put_le(std::uint64_t v, int n) {
        for (int i = 0; i < n; ++i) {
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
        }
    }
    std::vector<std::uint8_t> buf_;
};

/// Matching bounds-checked reader. Every underrun throws a WireError with
/// the offset, so a truncated artifact or frame is a diagnosable error,
/// never silent garbage.
class WireError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

class ByteReader {
public:
    ByteReader(const void* data, std::size_t size)
        : p_(static_cast<const std::uint8_t*>(data)), size_(size) {}
    explicit ByteReader(std::string_view bytes)
        : ByteReader(bytes.data(), bytes.size()) {}

    [[nodiscard]] std::uint8_t u8() { return take(1)[0]; }
    [[nodiscard]] std::uint16_t u16() {
        return static_cast<std::uint16_t>(get_le(2));
    }
    [[nodiscard]] std::uint32_t u32() {
        return static_cast<std::uint32_t>(get_le(4));
    }
    [[nodiscard]] std::uint64_t u64() { return get_le(8); }
    [[nodiscard]] double f64() {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }
    [[nodiscard]] bool boolean() { return u8() != 0; }

    /// Length-prefixed (u32) string.
    [[nodiscard]] std::string str();

    /// Fixed-width char field written by ByteWriter::fixed_str: the bytes
    /// up to the first NUL (or the full width).
    [[nodiscard]] std::string fixed_str(std::size_t width);

    void read_bytes(void* out, std::size_t n) {
        if (n == 0) return;
        std::memcpy(out, take(n), n);
    }

    [[nodiscard]] std::size_t offset() const { return off_; }
    [[nodiscard]] std::size_t remaining() const { return size_ - off_; }

    /// Throws unless the buffer was consumed exactly — a fixed-size frame
    /// with trailing bytes is as malformed as a short one.
    void expect_end() const;

private:
    const std::uint8_t* take(std::size_t n);
    std::uint64_t get_le(int n) {
        const std::uint8_t* b = take(static_cast<std::size_t>(n));
        std::uint64_t v = 0;
        for (int i = 0; i < n; ++i) {
            v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
        }
        return v;
    }

    const std::uint8_t* p_;
    std::size_t size_;
    std::size_t off_ = 0;
};

}  // namespace ob::util
