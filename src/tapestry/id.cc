#include "src/tapestry/id.h"

#include <sstream>

namespace tap {

std::string Id::to_string() const {
  if (!valid()) return "<invalid>";
  std::ostringstream os;
  static constexpr char kHex[] = "0123456789ABCDEF";
  const bool compact = spec_.digit_bits <= 4;
  for (unsigned i = 0; i < spec_.num_digits; ++i) {
    const unsigned d = digit(i);
    if (compact) {
      os << kHex[d];
    } else {
      if (i > 0) os << '.';
      os << d;
    }
  }
  return os.str();
}

Guid salted_guid(const Guid& guid, unsigned salt) {
  TAP_CHECK(guid.valid(), "salted_guid on invalid Id");
  if (salt == 0) return guid;
  const IdSpec spec = guid.spec();
  return Guid(spec, hash_combine(guid.value(), salt) & spec.mask());
}

}  // namespace tap
