// identity_key.hpp — raw-bits cache identities.
//
// A key is the concatenated bytes of every value that can change a cached
// answer, so two keys are equal iff every appended value is bit-identical.
// Strings are length-prefixed so adjacent values cannot alias.  Parameter
// structs enter through their visit_fields table (found by argument-
// dependent lookup next to the struct), so a key covers every field the
// table lists and a field added to the struct cannot be left out of one key
// but not another.
#pragma once

#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace liquid3d {

template <class T>
  requires std::is_trivially_copyable_v<T>
void append_bits(std::string& key, const T& v) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  key.append(bytes, sizeof(T));
}

inline void append_bits(std::string& key, std::string_view s) {
  append_bits(key, s.size());
  key.append(s);
}

/// Appends the raw bits of every field `visit_fields(params, f)` lists.
template <class Params>
void append_fields(std::string& key, const Params& params) {
  visit_fields(params,
               [&key](const char*, const auto& field) { append_bits(key, field); });
}

}  // namespace liquid3d
