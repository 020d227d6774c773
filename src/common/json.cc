#include "common/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <string_view>

#include "common/format.hh"
#include "common/log.hh"

namespace tsm {

namespace {

const Json kNullJson;

/** Append one Unicode code point to `out` as UTF-8 (1-4 bytes). */
void
appendUtf8(std::string &out, std::uint32_t cp)
{
    if (cp < 0x80) {
        out.push_back(char(cp));
    } else if (cp < 0x800) {
        out.push_back(char(0xc0 | (cp >> 6)));
        out.push_back(char(0x80 | (cp & 0x3f)));
    } else if (cp < 0x10000) {
        out.push_back(char(0xe0 | (cp >> 12)));
        out.push_back(char(0x80 | ((cp >> 6) & 0x3f)));
        out.push_back(char(0x80 | (cp & 0x3f)));
    } else {
        out.push_back(char(0xf0 | (cp >> 18)));
        out.push_back(char(0x80 | ((cp >> 12) & 0x3f)));
        out.push_back(char(0x80 | ((cp >> 6) & 0x3f)));
        out.push_back(char(0x80 | (cp & 0x3f)));
    }
}

/** Append `s` as a quoted JSON string; runs that need no escape are
 *  appended in one call each. */
void
escapeTo(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    out.push_back('"');
    std::size_t run = 0; // start of the pending unescaped run
    for (std::size_t i = 0; i < s.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(s[i]);
        const char *escape;
        switch (c) {
          case '"': escape = "\\\""; break;
          case '\\': escape = "\\\\"; break;
          case '\n': escape = "\\n"; break;
          case '\t': escape = "\\t"; break;
          case '\r': escape = "\\r"; break;
          default:
            if (c >= 0x20)
                continue;
            escape = nullptr;
        }
        out.append(s, run, i - run);
        run = i + 1;
        if (escape) {
            out += escape;
        } else {
            out += "\\u00";
            out.push_back(kHex[c >> 4]);
            out.push_back(kHex[c & 0xf]);
        }
    }
    out.append(s, run, s.size() - run);
    out.push_back('"');
}

/** Strict recursive-descent parser over a byte range. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {}

    Json
    run()
    {
        Json v = value();
        skipWs();
        if (ok_ && pos_ != text_.size())
            fail("trailing characters after document");
        return ok_ ? std::move(v) : Json();
    }

  private:
    void
    fail(const std::string &why)
    {
        if (ok_ && error_)
            *error_ = why + " at offset " + std::to_string(pos_);
        ok_ = false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    Json
    value()
    {
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return {};
        }
        const char c = text_[pos_];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return Json(string());
        if (c == 't' || c == 'f')
            return boolean();
        if (c == 'n') {
            literal("null");
            return {};
        }
        return number();
    }

    void
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p)
            if (!consume(*p)) {
                fail(std::string("bad literal, expected \"") + word + '"');
                return;
            }
    }

    Json
    boolean()
    {
        if (text_[pos_] == 't') {
            literal("true");
            return Json(true);
        }
        literal("false");
        return Json(false);
    }

    Json
    number()
    {
        const std::size_t start = pos_;
        if (consume('-')) {}
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start) {
            fail("expected a value");
            return {};
        }
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        const std::string_view tok(first, pos_ - start);
        if (tok.find_first_of(".eE") == std::string_view::npos) {
            // Integers beyond int64 fall through and become doubles.
            std::int64_t v = 0;
            const auto [end, ec] = std::from_chars(first, last, v);
            if (ec == std::errc() && end == last)
                return Json(v);
        }
        double d = 0.0;
        const auto [end, ec] = std::from_chars(first, last, d);
        if (ec == std::errc::result_out_of_range && end == last) {
            pos_ = start;
            fail("number out of range");
            return {};
        }
        if (ec != std::errc() || end != last) {
            fail("malformed number \"" + std::string(tok) + '"');
            return {};
        }
        return Json(d);
    }

    /**
     * Read exactly four hex digits of a \uXXXX escape; -1 (with the
     * parse failed) on truncation or a non-hex digit.
     */
    long
    hex4()
    {
        if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return -1;
        }
        long cp = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9')
                cp |= h - '0';
            else if (h >= 'a' && h <= 'f')
                cp |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F')
                cp |= h - 'A' + 10;
            else {
                fail(std::string("bad hex digit '") + h +
                     "' in \\u escape");
                return -1;
            }
        }
        return cp;
    }

    std::string
    string()
    {
        std::string out;
        consume('"');
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    break;
                const char e = text_[pos_++];
                switch (e) {
                  case '"': out.push_back('"'); break;
                  case '\\': out.push_back('\\'); break;
                  case '/': out.push_back('/'); break;
                  case 'n': out.push_back('\n'); break;
                  case 't': out.push_back('\t'); break;
                  case 'r': out.push_back('\r'); break;
                  case 'b': out.push_back('\b'); break;
                  case 'f': out.push_back('\f'); break;
                  case 'u': {
                    long cp = hex4();
                    if (cp < 0)
                        return out;
                    if (cp >= 0xdc00 && cp <= 0xdfff) {
                        fail("lone low surrogate in \\u escape");
                        return out;
                    }
                    if (cp >= 0xd800 && cp <= 0xdbff) {
                        // High surrogate: a \uDC00-\uDFFF low half
                        // must follow to form one code point.
                        if (pos_ + 2 > text_.size() ||
                            text_[pos_] != '\\' ||
                            text_[pos_ + 1] != 'u') {
                            fail("unpaired high surrogate in \\u escape");
                            return out;
                        }
                        pos_ += 2;
                        const long lo = hex4();
                        if (lo < 0)
                            return out;
                        if (lo < 0xdc00 || lo > 0xdfff) {
                            fail("high surrogate not followed by a low "
                                 "surrogate");
                            return out;
                        }
                        cp = 0x10000 + ((cp - 0xd800) << 10) +
                             (lo - 0xdc00);
                    }
                    appendUtf8(out, std::uint32_t(cp));
                    break;
                  }
                  default: fail("bad escape"); return out;
                }
            } else {
                out.push_back(c);
            }
        }
        fail("unterminated string");
        return out;
    }

    Json
    array()
    {
        Json out = Json::array();
        consume('[');
        skipWs();
        if (consume(']'))
            return out;
        for (;;) {
            out.push(value());
            if (!ok_)
                return out;
            skipWs();
            if (consume(']'))
                return out;
            if (!consume(',')) {
                fail("expected ',' or ']'");
                return out;
            }
        }
    }

    Json
    object()
    {
        Json out = Json::object();
        consume('{');
        skipWs();
        if (consume('}'))
            return out;
        for (;;) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"') {
                fail("expected object key");
                return out;
            }
            std::string key = string();
            skipWs();
            if (!consume(':')) {
                fail("expected ':'");
                return out;
            }
            out.set(key, value());
            if (!ok_)
                return out;
            skipWs();
            if (consume('}'))
                return out;
            if (!consume(',')) {
                fail("expected ',' or '}'");
                return out;
            }
        }
    }

    const std::string &text_;
    std::string *error_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace

Json::Json(std::uint64_t v)
{
    if (v <= std::uint64_t(INT64_MAX))
        v_.emplace<std::int64_t>(std::int64_t(v));
    else
        v_.emplace<double>(double(v));
}

Json::Json(double v)
{
    // Store integral doubles as exact integers so counters that pass
    // through double arithmetic still print exactly.
    if (std::isfinite(v) && std::nearbyint(v) == v &&
        std::abs(v) < 9.0e15)
        v_.emplace<std::int64_t>(std::int64_t(v));
    else
        v_.emplace<double>(v);
}

Json
Json::array()
{
    Json j;
    j.v_.emplace<Items>();
    return j;
}

Json
Json::object()
{
    Json j;
    j.v_.emplace<Members>();
    return j;
}

bool
Json::boolean() const
{
    TSM_ASSERT(kind() == Kind::Bool, "not a boolean");
    return std::get<bool>(v_);
}

std::int64_t
Json::integer() const
{
    TSM_ASSERT(kind() == Kind::Int, "not an integer");
    return std::get<std::int64_t>(v_);
}

double
Json::number() const
{
    TSM_ASSERT(isNumber(), "not a number");
    return kind() == Kind::Int ? double(std::get<std::int64_t>(v_))
                               : std::get<double>(v_);
}

const std::string &
Json::str() const
{
    TSM_ASSERT(kind() == Kind::String, "not a string");
    return std::get<std::string>(v_);
}

std::size_t
Json::size() const
{
    if (kind() == Kind::Array)
        return std::get<Items>(v_).size();
    if (kind() == Kind::Object)
        return std::get<Members>(v_).size();
    return 0;
}

Json &
Json::push(Json v)
{
    TSM_ASSERT(kind() == Kind::Array, "push on a non-array");
    std::get<Items>(v_).push_back(std::move(v));
    return *this;
}

const Json &
Json::at(std::size_t i) const
{
    TSM_ASSERT(kind() == Kind::Array && i < std::get<Items>(v_).size(),
               "array index out of range");
    return std::get<Items>(v_)[i];
}

const std::vector<Json> &
Json::items() const
{
    TSM_ASSERT(kind() == Kind::Array, "not an array");
    return std::get<Items>(v_);
}

Json &
Json::set(const std::string &key, Json v)
{
    TSM_ASSERT(kind() == Kind::Object, "set on a non-object");
    Members &obj = std::get<Members>(v_);
    for (auto &[k, existing] : obj) {
        if (k == key) {
            existing = std::move(v);
            return *this;
        }
    }
    obj.emplace_back(key, std::move(v));
    return *this;
}

const Json &
Json::operator[](const std::string &key) const
{
    if (kind() == Kind::Object)
        for (const auto &[k, v] : std::get<Members>(v_))
            if (k == key)
                return v;
    return kNullJson;
}

bool
Json::has(const std::string &key) const
{
    if (kind() != Kind::Object)
        return false;
    for (const auto &[k, v] : std::get<Members>(v_))
        if (k == key)
            return true;
    return false;
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    TSM_ASSERT(kind() == Kind::Object, "not an object");
    return std::get<Members>(v_);
}

void
Json::dumpTo(std::string &out, unsigned indent, unsigned depth) const
{
    const auto newline = [&](unsigned d) {
        if (indent == 0)
            return;
        out.push_back('\n');
        out.append(std::size_t(indent) * d, ' ');
    };

    switch (kind()) {
      case Kind::Null: out += "null"; break;
      case Kind::Bool: out += std::get<bool>(v_) ? "true" : "false"; break;
      case Kind::Int: {
        char buf[kMaxDecimal];
        out.append(buf, appendDecimal(buf, std::get<std::int64_t>(v_)));
        break;
      }
      case Kind::Double: {
        // JSON has no inf/nan; reports never produce them.
        const double d = std::get<double>(v_);
        char buf[kMaxFixed6];
        if (std::isfinite(d))
            out.append(buf, appendFixed6(buf, d));
        else
            out += "null";
        break;
      }
      case Kind::String: escapeTo(out, std::get<std::string>(v_)); break;

      case Kind::Array: {
        const Items &arr = std::get<Items>(v_);
        if (arr.empty()) {
            out += "[]";
            break;
        }
        out.push_back('[');
        for (std::size_t i = 0; i < arr.size(); ++i) {
            if (i)
                out.push_back(',');
            newline(depth + 1);
            arr[i].dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out.push_back(']');
        break;
      }

      case Kind::Object: {
        const Members &obj = std::get<Members>(v_);
        if (obj.empty()) {
            out += "{}";
            break;
        }
        out.push_back('{');
        for (std::size_t i = 0; i < obj.size(); ++i) {
            if (i)
                out.push_back(',');
            newline(depth + 1);
            escapeTo(out, obj[i].first);
            out.push_back(':');
            if (indent)
                out.push_back(' ');
            obj[i].second.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out.push_back('}');
        break;
      }
    }
}

std::string
Json::dump(unsigned indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

Json
Json::parse(const std::string &text, std::string *error)
{
    return Parser(text, error).run();
}

} // namespace tsm
