/**
 * @file
 * Checked parsing of numeric command-line and spec-string values.
 */

#ifndef LWSP_COMMON_PARSE_HH
#define LWSP_COMMON_PARSE_HH

#include <charconv>
#include <string_view>

namespace lwsp {

/**
 * Parse @p text as a plain decimal that fits @p out's unsigned type (no
 * sign, space or trailing text). @return false otherwise, so "abc" or
 * "8x" is an error rather than a silent 0 or 8.
 */
template <typename T>
bool
parseDecimal(std::string_view text, T &out)
{
    auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), out);
    return ec == std::errc() && end == text.data() + text.size();
}

} // namespace lwsp

#endif // LWSP_COMMON_PARSE_HH
