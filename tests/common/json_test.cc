#include <gtest/gtest.h>

#include <string>

#include "common/json.hh"

namespace tsm {
namespace {

TEST(Json, ObjectKeepsInsertionOrder)
{
    Json o = Json::object();
    o.set("zulu", 1);
    o.set("alpha", 2);
    o.set("mike", 3);
    EXPECT_EQ(o.dump(), "{\"zulu\":1,\"alpha\":2,\"mike\":3}");
    // Replacing an existing key keeps its original position.
    o.set("alpha", 9);
    EXPECT_EQ(o.dump(), "{\"zulu\":1,\"alpha\":9,\"mike\":3}");
}

TEST(Json, IntegersPrintExactly)
{
    Json o = Json::object();
    o.set("i", std::int64_t(1234567890123456789LL));
    o.set("u", std::uint64_t(42));
    o.set("neg", -7);
    EXPECT_EQ(o.dump(), "{\"i\":1234567890123456789,\"u\":42,\"neg\":-7}");
    EXPECT_EQ(o["i"].kind(), Json::Kind::Int);
}

TEST(Json, DoublesTrimTrailingZeros)
{
    Json a = Json::array();
    a.push(0.5);
    a.push(1.25);
    const std::string s = a.dump();
    EXPECT_NE(s.find("0.5"), std::string::npos);
    EXPECT_NE(s.find("1.25"), std::string::npos);
    EXPECT_EQ(s.find("0.500000"), std::string::npos);
}

TEST(Json, DoublesBeyond1e62PrintInFullAndRoundTrip)
{
    // A fixed 64-byte buffer used to cut these off: 1e63 printed as a
    // 63-digit integer, ten times too small.
    for (const double v : {1e62, 1e63, -1e70, 1.7976931348623157e308}) {
        const std::string text = Json(v).dump();
        std::string error;
        const Json back = Json::parse(text, &error);
        ASSERT_TRUE(error.empty()) << error;
        EXPECT_EQ(back.kind(), Json::Kind::Double) << text;
        EXPECT_EQ(back.number(), v) << text;
        EXPECT_EQ(back.dump(), text);
    }
    EXPECT_EQ(Json(1e63).dump().size(), 64u + 2u);
}

TEST(Json, IsACompactValue)
{
    EXPECT_LE(sizeof(Json), 40u);
}

TEST(Json, MemberAccessNullSentinel)
{
    Json o = Json::object();
    o.set("x", 1);
    EXPECT_TRUE(o.has("x"));
    EXPECT_FALSE(o.has("y"));
    EXPECT_TRUE(o["y"].isNull());
    EXPECT_EQ(o["x"].integer(), 1);
}

TEST(Json, StringEscaping)
{
    const Json s(std::string("a\"b\\c\n\t"));
    EXPECT_EQ(s.dump(), "\"a\\\"b\\\\c\\n\\t\"");
}

TEST(Json, ParseRoundTrip)
{
    Json o = Json::object();
    o.set("name", "bench");
    o.set("n", 17);
    o.set("ratio", 0.75);
    o.set("ok", true);
    o.set("nothing", Json());
    Json arr = Json::array();
    arr.push(1);
    arr.push(2);
    o.set("list", std::move(arr));

    const std::string text = o.dump(2);
    std::string error;
    const Json back = Json::parse(text, &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(back.dump(2), text);
    EXPECT_EQ(back["n"].integer(), 17);
    EXPECT_DOUBLE_EQ(back["ratio"].number(), 0.75);
    EXPECT_TRUE(back["ok"].boolean());
    EXPECT_TRUE(back["nothing"].isNull());
    EXPECT_EQ(back["list"].size(), 2u);
    EXPECT_EQ(back["list"].at(1).integer(), 2);
}

TEST(Json, ParseErrorsReport)
{
    std::string error;
    EXPECT_TRUE(Json::parse("{\"a\": }", &error).isNull());
    EXPECT_FALSE(error.empty());
    error.clear();
    EXPECT_TRUE(Json::parse("[1, 2", &error).isNull());
    EXPECT_FALSE(error.empty());
    error.clear();
    // Trailing garbage after a valid document is an error.
    EXPECT_TRUE(Json::parse("{} x", &error).isNull());
    EXPECT_FALSE(error.empty());
}

TEST(Json, NumbersOutsideDoubleRangeAreErrors)
{
    const struct
    {
        const char *text;
        const char *error;
    } cases[] = {
        {"1e999", "number out of range at offset 0"},
        {"-1e999", "number out of range at offset 0"},
        {"[1, 2.5e400]", "number out of range at offset 4"},
        {"{\"x\": -1e-999}", "number out of range at offset 6"},
        {"+1", "malformed number \"+1\" at offset 2"},
        {"1e", "malformed number \"1e\" at offset 2"},
        {"1-2", "malformed number \"1-2\" at offset 3"},
    };
    for (const auto &c : cases) {
        std::string error;
        EXPECT_TRUE(Json::parse(c.text, &error).isNull()) << c.text;
        EXPECT_EQ(error, c.error) << c.text;
    }
}

TEST(Json, IntegersBeyondInt64BecomeDoubles)
{
    std::string error;
    const Json big = Json::parse("[9223372036854775807, "
                                 "9223372036854775808, "
                                 "-9223372036854775809]",
                                 &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(big.at(0).kind(), Json::Kind::Int);
    EXPECT_EQ(big.at(0).integer(), INT64_MAX);
    EXPECT_EQ(big.at(1).kind(), Json::Kind::Double);
    EXPECT_EQ(big.at(1).number(), 9223372036854775808.0);
    EXPECT_EQ(big.at(2).kind(), Json::Kind::Double);
    EXPECT_EQ(big.at(2).number(), -9223372036854775808.0);
}

TEST(Json, UnicodeEscapesDecodeToUtf8)
{
    std::string error;
    // One escape from each UTF-8 length class: ASCII, 2-byte, 3-byte,
    // and an astral code point spelled as a surrogate pair.
    const Json v = Json::parse(
        "\"\\u0041 \\u00e9 \\u20ac \\ud83d\\ude00\"", &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(v.str(), "A \xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80");
}

TEST(Json, UnicodeEscapesRoundTripByteStably)
{
    // parse -> serialize -> parse: after the first serialize (which
    // emits the decoded UTF-8 bytes raw), the text is a fixed point.
    std::string error;
    const Json first = Json::parse(
        "{\"k\\u00e9y\": \"caf\\u00e9 \\u2014 \\ud834\\udd1e\"}", &error);
    ASSERT_TRUE(error.empty()) << error;
    const std::string text = first.dump();
    const Json second = Json::parse(text, &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(second.dump(), text);
    EXPECT_EQ(first["k\xc3\xa9y"].str(),
              "caf\xc3\xa9 \xe2\x80\x94 \xf0\x9d\x84\x9e");
}

TEST(Json, ControlCharEscapesRoundTrip)
{
    // escapeTo writes control chars as \u00XX; the parser must read
    // them back to the same bytes.
    const Json s(std::string("a\x01b\x1f"));
    const std::string text = s.dump();
    std::string error;
    const Json back = Json::parse(text, &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(back.str(), s.str());
    EXPECT_EQ(back.dump(), text);
}

TEST(Json, MalformedUnicodeEscapesAreErrors)
{
    const char *bad[] = {
        "\"\\u12\"",            // truncated escape
        "\"\\u12g4\"",          // non-hex digit
        "\"\\udc00\"",          // lone low surrogate
        "\"\\ud800\"",          // unpaired high surrogate at EOS
        "\"\\ud800x\"",         // high surrogate not followed by \u
        "\"\\ud800\\u0041\"",   // high surrogate + non-low escape
        "\"\\ud800\\ud800\"",   // high surrogate + another high
    };
    for (const char *text : bad) {
        std::string error;
        EXPECT_TRUE(Json::parse(text, &error).isNull()) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(Json, DumpIsDeterministic)
{
    auto build = [] {
        Json o = Json::object();
        o.set("b", 2);
        o.set("a", Json::array());
        o.set("c", 1.5);
        return o;
    };
    EXPECT_EQ(build().dump(2), build().dump(2));
}

} // namespace
} // namespace tsm
