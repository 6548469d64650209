// Whole-field readers for the line-oriented text files the overlay writes:
// the PersistentStore WAL and snapshot (persistent_store.cc) and the
// checkpoint manifest (directory_checkpoint.cc).  Internal to those two.
//
// Fields are separated by single spaces, exactly as the writers emit them;
// each reader pops one field off `rest` and fails unless the whole field
// parses to a value a writer can produce.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <system_error>

#include "src/tapestry/id.h"

namespace tap {

inline std::string_view next_field(std::string_view& rest) {
  const std::string_view field = rest.substr(0, rest.find(' '));
  rest.remove_prefix(std::min(rest.size(), field.size() + 1));
  return field;
}

template <typename T>
bool read_uint(std::string_view& rest, T& out, int base = 10) {
  const std::string_view f = next_field(rest);
  const auto [end, ec] = std::from_chars(f.data(), f.data() + f.size(), out,
                                         base);
  return ec == std::errc() && end == f.data() + f.size();
}

/// A hex id that fits the namespace of `spec`.
inline bool read_id(std::string_view& rest, IdSpec spec, std::uint64_t& out) {
  return read_uint(rest, out, 16) && out <= spec.mask();
}

inline bool read_flag(std::string_view& rest, bool& out) {
  const std::string_view f = next_field(rest);
  out = f == "1";
  return out || f == "0";
}

/// A deadline or clock: any double %.17g writes, inf included, but never
/// NaN — a NaN deadline is neither live nor expirable.
inline bool read_time(std::string_view& rest, double& out) {
  const std::string_view f = next_field(rest);
  const auto [end, ec] = std::from_chars(f.data(), f.data() + f.size(), out);
  return ec == std::errc() && end == f.data() + f.size() && !std::isnan(out);
}

/// The text of a line up to its newline.
inline std::string_view line_text(const char* line) {
  return std::string_view(line, std::strcspn(line, "\n"));
}

}  // namespace tap
