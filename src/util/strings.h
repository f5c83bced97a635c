// sbx/util/strings.h
//
// Small ASCII string helpers shared by the email parser and tokenizer.
// Locale-independent by design: email headers and token statistics must not
// change behaviour with the process locale.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace sbx::util {

/// ASCII-only lower-casing (locale independent).
std::string to_lower(std::string_view s);

/// ASCII-only upper-casing (locale independent).
std::string to_upper(std::string_view s);

/// True if `c` is ASCII whitespace (space, tab, CR, LF, FF, VT) — the one
/// definition of whitespace: the parser, trim/split_whitespace and the
/// tokenizer's byte classes all use it. Inline, since those loops call it
/// once per byte.
constexpr bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\f' ||
         c == '\v';
}

/// Strips leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Splits on a single character; empty fields are kept.
std::vector<std::string> split(std::string_view s, char sep);

/// Splits on runs of ASCII whitespace; empty fields are dropped.
std::vector<std::string> split_whitespace(std::string_view s);

/// Joins elements with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Case-insensitive ASCII equality.
bool iequals(std::string_view a, std::string_view b);

/// True if `s` begins with `prefix`, case-insensitively.
bool istarts_with(std::string_view s, std::string_view prefix);

/// Replaces every occurrence of `from` (non-empty) with `to`.
std::string replace_all(std::string_view s, std::string_view from,
                        std::string_view to);

/// Formats a double with fixed precision (printf "%.*f").
std::string format_double(double v, int precision);

/// The one spelling of a registry-lookup failure: "unknown <kind> '<name>'
/// (known: a, b, c)". Shared by the experiment registry, the attack
/// registry and the tokenizer-preset axis so every unknown-name error
/// lists the valid names the same way.
std::string unknown_name_message(std::string_view kind, std::string_view name,
                                 const std::vector<std::string>& known);

}  // namespace sbx::util
