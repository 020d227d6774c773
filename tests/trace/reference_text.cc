#include "reference_text.hh"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace tsm::reference {

std::string
journalLine(const TraceEvent &ev)
{
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "%" PRIu64 " %s %" PRIu32 " %s %" PRId64 " %" PRId64
                  " %" PRIx64,
                  std::uint64_t(ev.tick), traceCatName(ev.cat), ev.actor,
                  traceOpName(ev.op), ev.a, ev.b,
                  std::uint64_t(ev.span));
    return buf;
}

std::string
formatDouble(double v)
{
    if (!std::isfinite(v))
        return "null"; // JSON has no inf/nan; reports never produce them
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6f", v);
    std::string s = buf;
    while (s.size() > 1 && s.back() == '0')
        s.pop_back();
    if (s.back() == '.')
        s.push_back('0');
    return s;
}

bool
formatDoubleCutsPoint(double v)
{
    // The text is sign + integer digits + ".dddddd".
    const int len = std::snprintf(nullptr, 0, "%.6f", v);
    return std::isfinite(v) && len - 7 >= 63;
}

} // namespace tsm::reference
