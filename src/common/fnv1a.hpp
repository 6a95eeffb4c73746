#pragma once

/// \file fnv1a.hpp
/// \brief FNV-1a 64-bit content fingerprints.
///
/// One routine behind every fingerprint in cloudwf: checkpoint journal
/// request keys (exp/checkpoint), the campaign configuration hash
/// (exp/campaign) and the workflow/platform content hashes that key
/// sched::PlanCache.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace cloudwf {

/// FNV-1a 64-bit.  mix() feeds raw bytes; the field helpers follow each
/// field with a separator so adjacent fields cannot alias ("ab"+"c" vs
/// "a"+"bc").
class Fnv1a {
 public:
  void mix(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001B3ULL;
    }
  }
  void bytes(const void* data, std::size_t size) {
    mix(data, size);
    const unsigned char separator = 0x1F;
    mix(&separator, 1);
  }
  void str(std::string_view s) { bytes(s.data(), s.size()); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// \p v as 16 lowercase hex digits.
[[nodiscard]] inline std::string hex64(std::uint64_t v) {
  static constexpr std::string_view digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) out[static_cast<std::size_t>(i)] = digits[v & 0xF];
  return out;
}

}  // namespace cloudwf
