#include "trace/digest.hh"

#include <cstring>

namespace tsm {

std::uint64_t
fnv1a64(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

std::uint64_t
fnv1a64Word(std::uint64_t h, std::uint64_t word)
{
    // Explicit little-endian byte order so the digest is identical
    // across platforms, like the rest of the deterministic machinery.
    for (int i = 0; i < 8; ++i) {
        h ^= (word >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

void
DigestSink::event(const TraceEvent &ev)
{
    std::uint64_t h = digest_;
    h = fnv1a64Word(h, ev.tick);
    h = fnv1a64Word(h, ev.dur);
    h = fnv1a64Word(h, std::uint64_t(ev.cat));
    h = fnv1a64Word(h, ev.actor);
    const char *name = traceOpName(ev.op);
    h = fnv1a64(h, name, std::strlen(name));
    h = fnv1a64Word(h, std::uint64_t(ev.a));
    h = fnv1a64Word(h, std::uint64_t(ev.b));
    h = fnv1a64Word(h, ev.span);
    digest_ = h;
    ++events_;
}

void
DigestSink::reset()
{
    digest_ = kFnvOffsetBasis;
    events_ = 0;
}

} // namespace tsm
