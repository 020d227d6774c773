/**
 * @file
 * Minimal std::format-style string formatting.
 *
 * The toolchain available here (GCC 12) does not ship <format>, so this
 * header provides the small subset the simulator uses:
 *
 *   {}            default formatting of the next argument
 *   {:.Nf}        fixed-point with N digits
 *   {:Wd}/{:W}    minimum width W, right-aligned (numbers) by default
 *   {:<W} {:>W}   explicit alignment
 *   {:{}} {:.{}}  dynamic width/precision consumed from the arg list
 *   {{ and }}     literal braces
 *
 * Formatting is runtime-checked: a malformed string or arity mismatch
 * throws std::runtime_error (callers are internal; a throw here is a
 * programming error surfaced loudly in tests).
 *
 * Deterministic text (journals, JSON documents) is rendered through
 * the append*() functions below instead: std::to_chars straight into
 * the caller's buffer, with no locale, no format string and no
 * temporary.
 */

#ifndef TSM_COMMON_FORMAT_HH
#define TSM_COMMON_FORMAT_HH

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

namespace tsm {

namespace detail {

/** A type-erased format argument. */
struct FormatArg
{
    std::variant<std::int64_t, std::uint64_t, double, std::string, char,
                 bool>
        value;

    template <typename T>
    static FormatArg
    make(T &&v)
    {
        using U = std::decay_t<T>;
        FormatArg a;
        if constexpr (std::is_same_v<U, bool>) {
            a.value = v;
        } else if constexpr (std::is_same_v<U, char>) {
            a.value = v;
        } else if constexpr (std::is_enum_v<U>) {
            a.value = std::int64_t(v);
        } else if constexpr (std::is_integral_v<U> && std::is_signed_v<U>) {
            a.value = std::int64_t(v);
        } else if constexpr (std::is_integral_v<U>) {
            a.value = std::uint64_t(v);
        } else if constexpr (std::is_floating_point_v<U>) {
            a.value = double(v);
        } else if constexpr (std::is_convertible_v<U, std::string_view>) {
            a.value = std::string(std::string_view(v));
        } else {
            static_assert(std::is_convertible_v<U, std::string_view>,
                          "unformattable argument type");
        }
        return a;
    }
};

/** Core formatter over type-erased arguments. */
std::string vformat(std::string_view fmt, const std::vector<FormatArg> &args);

} // namespace detail

/** Format `fmt` with the given arguments (see file comment for subset). */
template <typename... Args>
std::string
format(std::string_view fmt, Args &&...args)
{
    std::vector<detail::FormatArg> v;
    v.reserve(sizeof...(Args));
    (v.push_back(detail::FormatArg::make(std::forward<Args>(args))), ...);
    return detail::vformat(fmt, v);
}

/// @name Appenders
/// Each writes its text at `out`, which must have room for the kMax*
/// bytes named beside it, and returns the end of what it wrote.
/// @{

/** Longest decimal integer: INT64_MIN and UINT64_MAX take 20. */
inline constexpr std::size_t kMaxDecimal = 20;

/** Longest hexadecimal 64-bit value. */
inline constexpr std::size_t kMaxHex = 16;

/** Longest fixed-6 double: sign, DBL_MAX's 309 digits, point, six. */
inline constexpr std::size_t kMaxFixed6 = 1 + 309 + 1 + 6;

/** The decimal form of an integer ("-42"). */
template <std::integral T>
inline char *
appendDecimal(char *out, T v)
{
    return std::to_chars(out, out + kMaxDecimal, v).ptr;
}

/** Lowercase hexadecimal without a prefix ("1f"). */
inline char *
appendHex(char *out, std::uint64_t v)
{
    return std::to_chars(out, out + kMaxHex, v, 16).ptr;
}

/**
 * `v` as printf("%.6f") prints it in the C locale, with trailing zeros
 * trimmed down to one fractional digit ("0.5", "2.0", "-0.0"). Every
 * finite double prints in full; non-finite ones print "inf", "-inf" or
 * "nan", so callers whose format has no such values map them first.
 */
char *appendFixed6(char *out, double v);

/// @}

} // namespace tsm

#endif // TSM_COMMON_FORMAT_HH
