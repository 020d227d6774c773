/**
 * @file
 * Minimal JSON document model used by the profiling layer.
 *
 * The writer is what matters here: profile reports must be *stable* —
 * object keys keep insertion order, integers print exactly, doubles
 * print with a fixed shortest-fixed-point rule — so that two same-seed
 * runs emit byte-identical `BENCH_*.json` files and golden tests can
 * diff them directly. The reader is a small strict recursive-descent
 * parser, enough for `tsm_report` to reload a report and for tests to
 * round-trip. `\uXXXX` escapes decode to UTF-8 (surrogate pairs
 * included); malformed escapes — bad hex digits, truncation, lone or
 * unpaired surrogates — are parse errors, never silent replacements,
 * so escaped strings survive parse -> serialize -> parse byte-stably.
 */

#ifndef TSM_COMMON_JSON_HH
#define TSM_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace tsm {

/** One JSON value; objects preserve key insertion order. */
class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Int,    ///< exact signed 64-bit integer
        Double, ///< non-integral number
        String,
        Array,
        Object,
    };

    Json() = default;
    Json(bool b) : v_(std::in_place_type<bool>, b) {}
    Json(int v) : v_(std::in_place_type<std::int64_t>, v) {}
    Json(unsigned v) : v_(std::in_place_type<std::int64_t>, v) {}
    Json(std::int64_t v) : v_(std::in_place_type<std::int64_t>, v) {}
    Json(std::uint64_t v);
    Json(double v);
    Json(const char *s) : v_(std::in_place_type<std::string>, s) {}
    Json(std::string s)
        : v_(std::in_place_type<std::string>, std::move(s))
    {}

    static Json array();
    static Json object();

    Kind kind() const { return Kind(v_.index()); }
    bool isNull() const { return kind() == Kind::Null; }
    bool isNumber() const
    {
        return kind() == Kind::Int || kind() == Kind::Double;
    }

    /// @name Typed access (asserts on kind mismatch)
    /// @{
    bool boolean() const;
    std::int64_t integer() const;

    /** Any number as a double. */
    double number() const;

    const std::string &str() const;
    /// @}

    /// @name Arrays
    /// @{
    std::size_t size() const;
    Json &push(Json v);
    const Json &at(std::size_t i) const;
    const std::vector<Json> &items() const;
    /// @}

    /// @name Objects
    /// @{

    /** Set key (appends; replaces in place if the key exists). */
    Json &set(const std::string &key, Json v);

    /** Member access; null sentinel when absent. */
    const Json &operator[](const std::string &key) const;

    /** True if the object has `key`. */
    bool has(const std::string &key) const;

    const std::vector<std::pair<std::string, Json>> &members() const;
    /// @}

    /**
     * Serialize. With indent > 0, pretty-print using that many spaces
     * per level; 0 emits the compact one-line form. Output is a pure
     * function of the document: stable across runs and platforms.
     */
    std::string dump(unsigned indent = 0) const;

    /**
     * Parse a complete JSON document. On failure returns a Null value
     * and, when `error` is non-null, stores a message with the byte
     * offset of the problem.
     */
    static Json parse(const std::string &text, std::string *error = nullptr);

  private:
    using Items = std::vector<Json>;
    using Members = std::vector<std::pair<std::string, Json>>;

    void dumpTo(std::string &out, unsigned indent, unsigned depth) const;

    /** One alternative per Kind, in Kind's order: kind() is index(). */
    std::variant<std::monostate, bool, std::int64_t, double, std::string,
                 Items, Members>
        v_;
};

} // namespace tsm

#endif // TSM_COMMON_JSON_HH
