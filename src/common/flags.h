// Command-line flag readers shared by tapestry_sim and the bench binaries:
// `--name=value` matching and whole-value numeric parsing.  A value that
// does not parse whole exits 2 naming its flag, never an uncaught
// exception or a silently truncated or wrapped count.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>
#include <type_traits>

namespace tap {

/// True, with the value in `*out`, when `arg` is `name=value`.
inline bool parse_flag(const char* arg, const char* name, std::string* out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

/// Parses the whole of `v` into `*out` for numeric flag `name`, or exits 2
/// naming the flag.  std::from_chars takes no sign for unsigned types and
/// no leading space, and the value must end where the argument does.  It
/// reads `nan` and `inf` as floating values; no flag takes one, so a
/// floating value must be finite.
template <typename T>
void parse_number(const char* name, const std::string& v, T* out) {
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, *out);
  bool ok = ec == std::errc() && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(*out);
  if (!ok) {
    std::fprintf(stderr, "invalid value for %s: '%s'\n", name, v.c_str());
    std::exit(2);
  }
}

/// True, with the parsed value in `*out`, when `arg` is `name=value`; a
/// value that does not parse whole exits 2 (parse_number).
template <typename T>
bool number_flag(const char* arg, const char* name, T* out) {
  std::string v;
  if (!parse_flag(arg, name, &v)) return false;
  parse_number(name, v, out);
  return true;
}

}  // namespace tap
