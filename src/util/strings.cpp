#include "util/strings.h"

#include <charconv>
#include <limits>

namespace tsufail {
namespace {

// ASCII-only character classes: the "C" locale's isspace and tolower,
// inlined.

bool ascii_space(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');  // ' ' \t \n \v \f \r
}

char ascii_lower(char c) noexcept {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

}  // namespace

std::string_view trim(std::string_view text) noexcept {
  while (!text.empty() && ascii_space(text.front())) text.remove_prefix(1);
  while (!text.empty() && ascii_space(text.back())) text.remove_suffix(1);
  return text;
}

std::vector<std::string_view> split(std::string_view text, char delimiter) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delimiter) {
      fields.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

std::string join(const std::vector<std::string>& parts, std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += separator;
    out += parts[i];
  }
  return out;
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = ascii_lower(c);
  return out;
}

bool iequals(std::string_view text, std::string_view other) noexcept {
  if (text.size() != other.size()) return false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (ascii_lower(text[i]) != ascii_lower(other[i])) return false;
  }
  return true;
}

Result<long long> parse_int(std::string_view text) {
  long long value = 0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end)
    return Error(ErrorKind::kParse, "not an integer: '" + std::string(text) + "'");
  return value;
}

Result<int> parse_int32(std::string_view text) {
  auto value = parse_int(text);
  if (!value.ok()) return value.error();
  if (value.value() < std::numeric_limits<int>::min() ||
      value.value() > std::numeric_limits<int>::max())
    return Error(ErrorKind::kParse, "integer out of range: '" + std::string(text) + "'");
  return static_cast<int>(value.value());
}

Result<double> parse_double(std::string_view text) {
  double value = 0.0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end)
    return Error(ErrorKind::kParse, "not a number: '" + std::string(text) + "'");
  return value;
}

}  // namespace tsufail
