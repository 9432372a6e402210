#pragma once
// Name <-> value lists for enums that are spelled in config files and on
// the command line. Each enum keeps one list next to its declaration; its
// parse/to_string functions and the config schema (runtime/config.cpp) all
// read that list.
//
// The first name listed for a value is canonical (to_string, dumps,
// --help); later ones are accepted aliases. Matching is case-insensitive.

#include <algorithm>
#include <cctype>
#include <optional>
#include <span>
#include <string>

namespace mvs::util {

struct EnumName {
  const char* name;
  int value;
};

template <class E>
constexpr EnumName enum_entry(const char* name, E value) {
  return {name, static_cast<int>(value)};
}

/// The value `name` spells, or nullopt.
template <class E>
std::optional<E> enum_value(std::span<const EnumName> names,
                            std::string name) {
  std::transform(name.begin(), name.end(), name.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  for (const EnumName& n : names)
    if (name == n.name) return static_cast<E>(n.value);
  return std::nullopt;
}

/// The canonical name of `value`; "?" when the list lacks it.
inline const char* enum_name(std::span<const EnumName> names, int value) {
  for (const EnumName& n : names)
    if (n.value == value) return n.name;
  return "?";
}

/// "a|b|c": the canonical names, aliases left out.
inline std::string enum_choices(std::span<const EnumName> names) {
  std::string out;
  for (const EnumName& n : names) {
    if (enum_name(names, n.value) != n.name) continue;
    out += (out.empty() ? "" : "|") + std::string(n.name);
  }
  return out;
}

}  // namespace mvs::util
