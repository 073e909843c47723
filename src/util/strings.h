// Small string utilities shared by the CSV layer and log parsers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/error.h"

namespace tsufail {

/// Removes ASCII whitespace from both ends.
std::string_view trim(std::string_view text) noexcept;

/// Splits on `delimiter`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string_view> split(std::string_view text, char delimiter);

/// Joins `parts` with `separator`.
std::string join(const std::vector<std::string>& parts, std::string_view separator);

/// ASCII lowercase copy.
std::string to_lower(std::string_view text);

/// True iff `text` equals `other` ignoring ASCII case.
bool iequals(std::string_view text, std::string_view other) noexcept;

/// Strict full-string integer parse (optional sign, no whitespace).
Result<long long> parse_int(std::string_view text);

/// parse_int for a value stored as an int: a value outside int's range
/// is an error naming it, never a wrapped int.
Result<int> parse_int32(std::string_view text);

/// Strict full-string floating-point parse.
Result<double> parse_double(std::string_view text);

}  // namespace tsufail
