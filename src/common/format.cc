#include "common/format.hh"

#include <cstdio>
#include <stdexcept>

namespace tsm {
namespace detail {

namespace {

struct Spec
{
    char fill = ' ';
    char align = 0; // 0 = default ('<' strings, '>' numbers)
    int width = -1;
    int precision = -1;
    char type = 0; // 'f', 'd', 'x', 'e', 'g' or 0
    bool dynamicWidth = false;
    bool dynamicPrecision = false;
};

[[noreturn]] void
bad(const char *what)
{
    throw std::runtime_error(std::string("tsm::format: ") + what);
}

/** Parse the text between ':' and '}' of a replacement field. */
Spec
parseSpec(std::string_view s)
{
    Spec spec;
    std::size_t i = 0;
    // fill+align
    if (s.size() >= 2 && (s[1] == '<' || s[1] == '>' || s[1] == '^')) {
        spec.fill = s[0];
        spec.align = s[1];
        i = 2;
    } else if (!s.empty() && (s[0] == '<' || s[0] == '>' || s[0] == '^')) {
        spec.align = s[0];
        i = 1;
    }
    // width
    if (i < s.size() && s[i] == '{') {
        if (i + 1 >= s.size() || s[i + 1] != '}')
            bad("malformed dynamic width");
        spec.dynamicWidth = true;
        i += 2;
    } else {
        int w = -1;
        while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
            w = (w < 0 ? 0 : w) * 10 + (s[i] - '0');
            ++i;
        }
        spec.width = w;
    }
    // precision
    if (i < s.size() && s[i] == '.') {
        ++i;
        if (i < s.size() && s[i] == '{') {
            if (i + 1 >= s.size() || s[i + 1] != '}')
                bad("malformed dynamic precision");
            spec.dynamicPrecision = true;
            i += 2;
        } else {
            int p = 0;
            bool any = false;
            while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
                p = p * 10 + (s[i] - '0');
                ++i;
                any = true;
            }
            if (!any)
                bad("missing precision digits");
            spec.precision = p;
        }
    }
    // presentation type
    if (i < s.size()) {
        spec.type = s[i];
        ++i;
    }
    if (i != s.size())
        bad("trailing characters in format spec");
    return spec;
}

std::string
renderValue(const FormatArg &arg, const Spec &spec)
{
    char buf[64];
    if (std::holds_alternative<double>(arg.value)) {
        const double v = std::get<double>(arg.value);
        const int prec = spec.precision >= 0 ? spec.precision : 6;
        const char t = spec.type ? spec.type : (spec.precision >= 0 ? 'f'
                                                                    : 'g');
        switch (t) {
          case 'f':
            std::snprintf(buf, sizeof buf, "%.*f", prec, v);
            break;
          case 'e':
            std::snprintf(buf, sizeof buf, "%.*e", prec, v);
            break;
          case 'g':
            std::snprintf(buf, sizeof buf, "%.*g", prec, v);
            break;
          default:
            bad("unsupported float presentation type");
        }
        return buf;
    }
    if (std::holds_alternative<std::int64_t>(arg.value)) {
        const auto v = std::get<std::int64_t>(arg.value);
        if (spec.type == 'x')
            std::snprintf(buf, sizeof buf, "%llx", (long long)v);
        else
            std::snprintf(buf, sizeof buf, "%lld", (long long)v);
        return buf;
    }
    if (std::holds_alternative<std::uint64_t>(arg.value)) {
        const auto v = std::get<std::uint64_t>(arg.value);
        if (spec.type == 'x')
            std::snprintf(buf, sizeof buf, "%llx", (unsigned long long)v);
        else
            std::snprintf(buf, sizeof buf, "%llu", (unsigned long long)v);
        return buf;
    }
    if (std::holds_alternative<char>(arg.value))
        return std::string(1, std::get<char>(arg.value));
    if (std::holds_alternative<bool>(arg.value))
        return std::get<bool>(arg.value) ? "true" : "false";
    return std::get<std::string>(arg.value);
}

bool
isNumeric(const FormatArg &arg)
{
    return std::holds_alternative<double>(arg.value) ||
           std::holds_alternative<std::int64_t>(arg.value) ||
           std::holds_alternative<std::uint64_t>(arg.value);
}

int
argAsInt(const FormatArg &arg)
{
    if (std::holds_alternative<std::int64_t>(arg.value))
        return int(std::get<std::int64_t>(arg.value));
    if (std::holds_alternative<std::uint64_t>(arg.value))
        return int(std::get<std::uint64_t>(arg.value));
    bad("dynamic width/precision argument is not integral");
}

} // namespace

std::string
vformat(std::string_view fmt, const std::vector<FormatArg> &args)
{
    std::string out;
    out.reserve(fmt.size() + args.size() * 8);
    std::size_t next_arg = 0;

    for (std::size_t i = 0; i < fmt.size(); ++i) {
        const char c = fmt[i];
        if (c == '{') {
            if (i + 1 < fmt.size() && fmt[i + 1] == '{') {
                out += '{';
                ++i;
                continue;
            }
            // Find the matching close brace; dynamic width/precision
            // nests one level of {} inside the field.
            std::size_t close = std::string_view::npos;
            int depth = 0;
            for (std::size_t j = i + 1; j < fmt.size(); ++j) {
                if (fmt[j] == '{') {
                    ++depth;
                } else if (fmt[j] == '}') {
                    if (depth == 0) {
                        close = j;
                        break;
                    }
                    --depth;
                }
            }
            if (close == std::string_view::npos)
                bad("unterminated replacement field");
            std::string_view field = fmt.substr(i + 1, close - i - 1);
            Spec spec;
            if (!field.empty()) {
                if (field[0] != ':')
                    bad("positional arguments are not supported");
                spec = parseSpec(field.substr(1));
            }
            // Automatic indexing: the outer field's '{' appears before
            // any nested '{}', so the value argument precedes dynamic
            // width/precision arguments (matching std::format).
            if (next_arg >= args.size())
                bad("not enough arguments");
            const FormatArg &arg = args[next_arg++];
            if (spec.dynamicWidth) {
                if (next_arg >= args.size())
                    bad("missing dynamic width argument");
                spec.width = argAsInt(args[next_arg++]);
            }
            if (spec.dynamicPrecision) {
                if (next_arg >= args.size())
                    bad("missing dynamic precision argument");
                spec.precision = argAsInt(args[next_arg++]);
            }
            std::string rendered = renderValue(arg, spec);
            if (spec.width > 0 && int(rendered.size()) < spec.width) {
                const auto pad =
                    std::size_t(spec.width) - rendered.size();
                char align = spec.align;
                if (align == 0)
                    align = isNumeric(arg) ? '>' : '<';
                if (align == '>') {
                    rendered.insert(0, pad, spec.fill);
                } else if (align == '<') {
                    rendered.append(pad, spec.fill);
                } else { // '^'
                    rendered.insert(0, pad / 2, spec.fill);
                    rendered.append(pad - pad / 2, spec.fill);
                }
            }
            out += rendered;
            i = close;
        } else if (c == '}') {
            if (i + 1 < fmt.size() && fmt[i + 1] == '}')
                ++i;
            out += '}';
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace detail

char *
appendFixed6(char *out, double v)
{
    char *end =
        std::to_chars(out, out + kMaxFixed6, v, std::chars_format::fixed, 6)
            .ptr;
    // A finite value always has a point six digits from the end.
    while (end[-1] == '0')
        --end;
    if (end[-1] == '.')
        *end++ = '0';
    return end;
}

} // namespace tsm
