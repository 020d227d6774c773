/**
 * @file
 * Differential tests of the to_chars text formatters against the
 * snprintf ones they replaced (reference_text.*): every journal line
 * and every JSON double must come out byte-identical, except the
 * doubles the old buffer printed wrongly, which are excluded by name
 * and checked to print in full instead.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/format.hh"
#include "reference_text.hh"
#include "runtime/machine.hh"
#include "scenario/generator.hh"
#include "scenario/scenario.hh"
#include "trace/journal.hh"

namespace tsm {
namespace {

/** Every event it sees, rendered by the reference journal formatter. */
class ReferenceJournal : public TraceSink
{
  public:
    unsigned categoryMask() const override { return kTraceAllCats; }

    void
    event(const TraceEvent &ev) override
    {
        text += reference::journalLine(ev);
        text += '\n';
    }

    std::string text = std::string(kJournalMagic) + '\n';
};

/** Empty when equal, else the first differing line of each. */
std::string
firstDifference(const std::string &got, const std::string &want)
{
    if (got == want)
        return {};
    const auto [g, w] = std::mismatch(got.begin(), got.end(), want.begin(),
                                      want.end());
    const auto line = [](const std::string &s, std::size_t at) {
        const std::size_t from = s.rfind('\n', at ? at - 1 : 0);
        const std::size_t start = from == std::string::npos ? 0 : from + 1;
        return s.substr(start, s.find('\n', start) - start);
    };
    return "got \"" + line(got, std::size_t(g - got.begin())) +
           "\", want \"" + line(want, std::size_t(w - want.begin())) + '"';
}

/** Journal `sc`'s whole run through JournalSink and the reference. */
void
expectJournalMatches(const std::string &name, const Scenario &sc)
{
    std::string error;
    const auto compiled = compileScenario(sc, &error);
    ASSERT_TRUE(compiled) << name << ": " << error;
    std::ostringstream os;
    JournalSink journal(os);
    ReferenceJournal reference;
    Machine(*compiled, sc.seed, sc.mbe).run({&journal, &reference}, name);
    journal.finish();
    EXPECT_GT(journal.eventsWritten(), 0u) << name;
    EXPECT_EQ(firstDifference(os.str(), reference.text), "") << name;
}

TEST(TextDifferential, JournalLineMatchesAtEveryOpCatAndExtreme)
{
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    constexpr std::uint64_t kUMax =
        std::numeric_limits<std::uint64_t>::max();
    std::ostringstream os;
    JournalSink journal(os);
    ReferenceJournal reference;
    for (unsigned cat = 0; cat < kNumTraceCats; ++cat) {
        for (unsigned op = 0; op <= unsigned(TraceOp::Completed); ++op) {
            for (const std::uint64_t tick : {std::uint64_t(0), kUMax}) {
                for (const std::int64_t a : {kMin, std::int64_t(-1),
                                             std::int64_t(0), kMax}) {
                    for (const std::int64_t b : {kMin, kMax}) {
                        TraceEvent ev;
                        ev.tick = tick;
                        ev.dur = kUMax;
                        ev.cat = TraceCat(cat);
                        ev.op = TraceOp(op);
                        ev.actor = a < 0 ? 0xffffffffu : std::uint32_t(op);
                        ev.a = a;
                        ev.b = b;
                        ev.span = a == kMax ? kUMax : std::uint64_t(a) >> 7;
                        ASSERT_EQ(journalLine(ev), reference::journalLine(ev))
                            << "cat " << cat << " op " << op;
                        journal.event(ev);
                        reference.event(ev);
                    }
                }
            }
        }
    }
    journal.finish();
    EXPECT_EQ(firstDifference(os.str(), reference.text), "");
}

/** `v` printed by appendFixed6. */
std::string
fixed6(double v)
{
    char buf[kMaxFixed6];
    return std::string(buf, appendFixed6(buf, v));
}

TEST(TextDifferential, DoublesMatchPrintfExceptWhereItWasCutOff)
{
    std::mt19937_64 rng(20260);
    std::vector<double> values = {
        0.0, -0.0, 5e-7, -5e-7, 4.999999e-7, 1.5e-6, 0.5, 1.25,
        0.0078125, -0.0078125, 2.5e-6, 9.0e15, 1e55, 1e61, -1e61, 9.9e61,
        -9.9e61, 1e62, -1e62, 1e63, -1e70,
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest()};
    std::uniform_int_distribution<std::uint64_t> bits;
    std::uniform_real_distribution<double> unit(-1.0, 1.0);
    std::uniform_int_distribution<int> exp10(-12, 18);
    std::uniform_int_distribution<std::int64_t> whole(-1000000, 1000000);
    std::uniform_int_distribution<int> odd(0, 63);
    while (values.size() < 1000000) {
        switch (values.size() % 4) {
          case 0: { // any finite bit pattern: every exponent, subnormals
            double v;
            do {
                const std::uint64_t b = bits(rng);
                std::memcpy(&v, &b, sizeof v);
            } while (!std::isfinite(v));
            values.push_back(v);
            break;
          }
          case 1: // magnitudes around the six printed decimals
            values.push_back(unit(rng) * std::pow(10.0, exp10(rng)));
            break;
          case 2: // exact ties at the seventh decimal: odd multiples
                  // of 1/128 end in ...5 there
            values.push_back(double(whole(rng)) +
                             double(2 * odd(rng) + 1) / 128.0);
            break;
          default: // the same ties below one, both signs
            values.push_back(double(2 * odd(rng) + 1) / 128.0 *
                             (whole(rng) < 0 ? -1.0 : 1.0));
        }
    }

    std::size_t compared = 0, cut = 0;
    for (const double v : values) {
        const std::string got = fixed6(v);
        if (reference::formatDoubleCutsPoint(v)) {
            // Excluded: the old text was wrong here. The new one must
            // still read back as exactly `v`.
            ++cut;
            ASSERT_GE(std::abs(v), 1e61) << got;
            ASSERT_EQ(got.substr(got.size() - 2), ".0") << got;
            double back = 0.0;
            const auto [end, ec] =
                std::from_chars(got.data(), got.data() + got.size(), back);
            ASSERT_TRUE(ec == std::errc() &&
                        end == got.data() + got.size())
                << got;
            ASSERT_EQ(back, v) << got;
            continue;
        }
        ++compared;
        ASSERT_EQ(got, reference::formatDouble(v))
            << "value " << std::hexfloat << v;
    }
    RecordProperty("compared", int(compared));
    RecordProperty("cut_off", int(cut));
    EXPECT_EQ(compared + cut, values.size());
    EXPECT_GT(cut, 0u);
    EXPECT_GT(compared, 700000u);
}

TEST(TextDifferential, CheckedInScenarioJournalsMatch)
{
    namespace fs = std::filesystem;
    std::vector<fs::path> files;
    for (const auto &entry :
         fs::recursive_directory_iterator(TSM_SCENARIO_DIR))
        if (entry.path().extension() == ".json")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    ASSERT_EQ(files.size(), 23u);
    for (const fs::path &file : files) {
        Scenario sc;
        std::string error;
        ASSERT_TRUE(loadScenarioFile(file.string(), sc, &error)) << error;
        expectJournalMatches(file.filename().string(), sc);
    }
}

TEST(TextDifferential, GeneratedScenarioJournalsMatch)
{
    for (std::uint64_t seed = 1; seed <= 500; ++seed) {
        expectJournalMatches("seed " + std::to_string(seed),
                             generateScenario(seed));
        if (HasFailure())
            return;
    }
}

} // namespace
} // namespace tsm
