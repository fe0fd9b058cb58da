#pragma once
// Byte-stream codec for checkpoint payloads. Header-only and dependency-free
// so every solver library can serialise its own state (save_state /
// load_state members) without linking against the resilience runtime.
//
// Encoding: raw little-endian bytes of trivially copyable values, vectors as
// u64 count + raw elements, strings as u64 length + bytes. Every read is
// bounds-checked against the remaining payload and throws CorruptError on
// truncation — a damaged checkpoint must fail loudly, never read past the
// buffer. Versioning and integrity (CRC32) live one level up, in the
// snapshot file framing (snapshot.hpp).

#include <cstdint>
#include <cstring>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace resilience {

/// Base class of every checkpoint/restart failure.
struct SnapshotError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A stream is truncated, fails its CRC, or decodes to nonsense.
struct CorruptError : SnapshotError {
  using SnapshotError::SnapshotError;
};

/// The restart world/solver layout does not match the manifest.
struct LayoutError : SnapshotError {
  using SnapshotError::SnapshotError;
};

class BlobWriter {
public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  template <class T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof v);
  }

  /// u64 count followed by the raw elements.
  template <class T>
  void array(const T* p, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    pod(static_cast<std::uint64_t>(n));
    if (n) bytes(p, n * sizeof(T));
  }

  template <class T>
  void vec(const std::vector<T>& v) {
    array(v.data(), v.size());
  }

  void str(const std::string& s) { array(s.data(), s.size()); }

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

private:
  std::vector<std::uint8_t> buf_;
};

class BlobReader {
public:
  BlobReader(const std::uint8_t* p, std::size_t n) : p_(p), end_(p + n) {}
  explicit BlobReader(const std::vector<std::uint8_t>& b) : BlobReader(b.data(), b.size()) {}

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }

  void bytes(void* out, std::size_t n) {
    if (n > remaining())
      throw CorruptError("resilience: truncated stream (want " + std::to_string(n) +
                         " bytes, have " + std::to_string(remaining()) + ")");
    // analyze: memcpy-ok (raw byte reader; pod<T>() supplies sizeof-exact counts)
    std::memcpy(out, p_, n);
    p_ += n;
  }

  template <class T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v;
    bytes(&v, sizeof v);
    return v;
  }

  template <class T>
  void pod(T& v) {
    v = pod<T>();
  }

  /// Reads a count-prefixed array; the element count is validated against the
  /// remaining payload before allocating (a corrupt count must not trigger a
  /// multi-gigabyte allocation).
  template <class T>
  std::vector<T> vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = pod<std::uint64_t>();
    if (n > remaining() / sizeof(T))
      throw CorruptError("resilience: corrupt array count " + std::to_string(n));
    std::vector<T> v(static_cast<std::size_t>(n));
    if (n) bytes(v.data(), static_cast<std::size_t>(n) * sizeof(T));
    return v;
  }

  std::string str() {
    auto raw = vec<char>();
    return std::string(raw.begin(), raw.end());
  }

  /// Every load_state should end with this: leftover bytes mean the payload
  /// and the loader disagree about the format.
  void expect_end() const {
    if (remaining() != 0)
      throw CorruptError("resilience: " + std::to_string(remaining()) +
                         " trailing bytes in stream");
  }

private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

// --- RNG engine serialisation ----------------------------------------------
// std::mt19937's stream operators print the full 624-word engine state as
// decimal integers; the round trip is exact by [rand.req.eng], which is what
// makes restarted runs bitwise identical to uninterrupted ones.

inline void put_rng(BlobWriter& w, const std::mt19937& g) {
  std::ostringstream os;
  os << g;
  w.str(os.str());
}

inline void get_rng(BlobReader& r, std::mt19937& g) {
  std::istringstream is(r.str());
  is >> g;
  if (!is) throw CorruptError("resilience: corrupt mt19937 state");
}

}  // namespace resilience
