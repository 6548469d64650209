// Identifiers: node-IDs and object GUIDs (paper §2).
//
// Tapestry names nodes and objects with strings of digits drawn from an
// alphabet of radix b.  IdSpec fixes the digit width and count at runtime
// (default: b = 16, 10 hex digits = a 40-bit namespace); Id packs the digit
// string into a uint64_t with digit 0 the most significant, so prefix
// comparisons are cheap mask operations.
//
// GUIDs and node-IDs deliberately share one type: surrogate routing (§2.3)
// treats an object GUID *as if it were a node-ID* and routes toward it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "src/common/assert.h"
#include "src/common/rng.h"

namespace tap {

/// Shape of the identifier space: digits of `digit_bits` bits each
/// (radix b = 2^digit_bits), `num_digits` of them.  Radix is capped at 64
/// (digit_bits <= 6) so each routing-table row's occupancy, and each row
/// of a §4.4 watch list, is one 64-bit word.
struct IdSpec {
  unsigned digit_bits = 4;
  unsigned num_digits = 10;

  [[nodiscard]] constexpr unsigned radix() const noexcept {
    return 1u << digit_bits;
  }
  [[nodiscard]] constexpr unsigned total_bits() const noexcept {
    return digit_bits * num_digits;
  }
  /// The namespace bound: every valid id value fits under this mask.
  [[nodiscard]] constexpr std::uint64_t mask() const noexcept {
    return total_bits() >= 64 ? ~std::uint64_t{0}
                              : (std::uint64_t{1} << total_bits()) - 1;
  }
  [[nodiscard]] constexpr bool valid() const noexcept {
    return digit_bits >= 1 && digit_bits <= 6 && num_digits >= 1 &&
           total_bits() <= 64;
  }
  constexpr bool operator==(const IdSpec& o) const noexcept {
    return digit_bits == o.digit_bits && num_digits == o.num_digits;
  }
  constexpr bool operator!=(const IdSpec& o) const noexcept {
    return !(*this == o);
  }
};

/// A digit string in the namespace defined by an IdSpec.  Value type;
/// default-constructed Ids are invalid placeholders (valid() == false).
class Id {
 public:
  constexpr Id() noexcept : bits_(0), spec_{0, 0} {}

  Id(IdSpec spec, std::uint64_t value) : bits_(value), spec_(spec) {
    TAP_CHECK(spec.valid(), "invalid IdSpec");
    TAP_CHECK(value <= spec.mask(), "Id value exceeds namespace");
  }

  /// Rebuilds an id from a value a container checked against `spec` when
  /// it stored it (RoutingTable keeps bare values under its own spec), so
  /// no check runs again.
  [[nodiscard]] static Id unchecked(IdSpec spec, std::uint64_t value) noexcept {
    Id id;
    id.bits_ = value;
    id.spec_ = spec;
    return id;
  }

  /// Uniformly random identifier — the paper assumes identifiers are
  /// uniformly distributed in the namespace.
  [[nodiscard]] static Id random(IdSpec spec, Rng& rng) {
    TAP_CHECK(spec.valid(), "invalid IdSpec");
    return Id(spec, rng() & spec.mask());
  }

  [[nodiscard]] bool valid() const noexcept { return spec_.num_digits != 0; }
  [[nodiscard]] IdSpec spec() const noexcept { return spec_; }
  [[nodiscard]] std::uint64_t value() const noexcept { return bits_; }
  [[nodiscard]] unsigned num_digits() const noexcept {
    return spec_.num_digits;
  }
  [[nodiscard]] unsigned radix() const noexcept { return spec_.radix(); }

  /// The i-th digit, 0 = most significant.
  [[nodiscard]] unsigned digit(unsigned i) const {
    TAP_ASSERT_MSG(valid(), "digit() on invalid Id");
    TAP_ASSERT(i < spec_.num_digits);
    const unsigned shift = (spec_.num_digits - 1 - i) * spec_.digit_bits;
    return static_cast<unsigned>((bits_ >> shift) & (spec_.radix() - 1));
  }

  /// True when the first `len` digits of this Id equal those of `other`.
  [[nodiscard]] bool matches_prefix(const Id& other, unsigned len) const {
    TAP_ASSERT(valid() && other.valid() && spec_ == other.spec_);
    TAP_ASSERT(len <= spec_.num_digits);
    if (len == 0) return true;
    const unsigned shift = (spec_.num_digits - len) * spec_.digit_bits;
    return (bits_ >> shift) == (other.bits_ >> shift);
  }

  /// Length of the greatest common prefix, in digits (paper's
  /// GREATESTCOMMONPREFIX).
  [[nodiscard]] unsigned common_prefix_len(const Id& other) const {
    TAP_ASSERT(valid() && other.valid() && spec_ == other.spec_);
    unsigned len = 0;
    while (len < spec_.num_digits && digit(len) == other.digit(len)) ++len;
    return len;
  }

  /// Numeric value of the first `len` digits; with `len` this keys
  /// prefix-bucket maps (used by invariant checks and the static builder).
  [[nodiscard]] std::uint64_t prefix_value(unsigned len) const {
    TAP_ASSERT(valid());
    TAP_ASSERT(len <= spec_.num_digits);
    if (len == 0) return 0;
    const unsigned shift = (spec_.num_digits - len) * spec_.digit_bits;
    return bits_ >> shift;
  }

  /// This Id with digit `pos` replaced by `d` (test helper for crafting
  /// adversarial prefix patterns).
  [[nodiscard]] Id with_digit(unsigned pos, unsigned d) const {
    TAP_ASSERT(valid());
    TAP_ASSERT(pos < spec_.num_digits);
    TAP_CHECK(d < spec_.radix(), "digit out of range");
    const unsigned shift = (spec_.num_digits - 1 - pos) * spec_.digit_bits;
    const std::uint64_t mask = std::uint64_t{spec_.radix() - 1} << shift;
    return Id(spec_, (bits_ & ~mask) | (std::uint64_t{d} << shift));
  }

  /// Digits rendered in base-16 (one character per digit for digit_bits <=
  /// 4, dot-separated decimal otherwise).
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Id& a, const Id& b) noexcept {
    return a.bits_ == b.bits_ && a.spec_ == b.spec_;
  }
  friend bool operator!=(const Id& a, const Id& b) noexcept {
    return !(a == b);
  }
  /// Total order on the value; used for the PRR global tie-break order.
  friend bool operator<(const Id& a, const Id& b) noexcept {
    return a.bits_ < b.bits_;
  }

 private:
  std::uint64_t bits_;
  IdSpec spec_;
};

using NodeId = Id;
using Guid = Id;

/// Maps an object GUID to the i-th member of its root set (paper
/// Observation 2): a pseudo-random function of (GUID, i).  Salt 0 is the
/// identity so a root multiplicity of one matches the basic scheme.
[[nodiscard]] Guid salted_guid(const Guid& guid, unsigned salt);

}  // namespace tap

template <>
struct std::hash<tap::Id> {
  std::size_t operator()(const tap::Id& id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value());
  }
};
