/**
 * @file
 * First-divergence determinism auditor: compares two tsm-journal-v1
 * event journals (recorded with --journal=FILE, or by a JournalSink
 * attached to a run's tracer) and reports the first event at which the
 * two runs differ, together with the causal span ancestry of the
 * offending transfer — every earlier event belonging to the same
 * vector journey, so the report reads as "this transfer, on this leg,
 * is where the machines stopped agreeing".
 *
 *   tsm_diverge [--context=N] [--ancestry=N] A.journal B.journal
 *
 * Exit status: 0 when the journals are event-identical, 1 on
 * divergence (or length mismatch), 2 on usage or file errors.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/version.hh"
#include "trace/journal.hh"
#include "trace/span.hh"

namespace {

using tsm::JournalRecord;
using tsm::SpanId;

void
printRecord(const char *tag, const JournalRecord &rec)
{
    std::printf("  %s line %zu: %s\n", tag, rec.line, rec.raw.c_str());
}

/** Name the first field that differs between two records. */
const char *
firstDifference(const JournalRecord &a, const JournalRecord &b)
{
    if (a.tick != b.tick)
        return "tick";
    if (a.cat != b.cat)
        return "category";
    if (a.actor != b.actor)
        return "actor";
    if (a.name != b.name)
        return "event name";
    if (a.a != b.a)
        return "payload a";
    if (a.b != b.b)
        return "payload b";
    if (a.span != b.span)
        return "span";
    return "nothing";
}

/**
 * Every event in `recs[0..limit)` belonging to the same transfer as
 * `span` (same parent span), i.e. the causal history of the diverging
 * vector: its open, each link leg, each forwarding chip's part.
 */
std::vector<const JournalRecord *>
spanAncestry(const std::vector<JournalRecord> &recs, std::size_t limit,
             SpanId span)
{
    std::vector<const JournalRecord *> out;
    const SpanId parent = tsm::spanParent(span);
    for (std::size_t i = 0; i < limit && i < recs.size(); ++i)
        if (recs[i].span != tsm::kSpanNone &&
            tsm::spanParent(recs[i].span) == parent)
            out.push_back(&recs[i]);
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned context = 3;
    unsigned ancestry_max = 32;
    bool version = false;
    tsm::CliParser cli("tsm_diverge");
    cli.addValue("--context", &context,
                 "matching events shown before the divergence");
    cli.addValue("--ancestry", &ancestry_max,
                 "causal span-ancestry events shown (most recent first)");
    cli.allowPositional();
    cli.addFlag("--version", &version,
                "print the tool name and supported schemas");
    if (!cli.parse(argc, argv))
        return 2;
    if (version) {
        std::printf("%s", tsm::toolVersionLine("tsm_diverge",
            {"tsm-journal-v1"}).c_str());
        return 0;
    }
    if (argc != 3) {
        std::fprintf(stderr,
                     "tsm_diverge: expected exactly two journal files\n%s",
                     cli.usage().c_str());
        return 2;
    }

    const std::string path_a = argv[1];
    const std::string path_b = argv[2];
    std::vector<JournalRecord> a, b;
    std::string error;
    if (!tsm::readJournal(path_a, a, &error) ||
        !tsm::readJournal(path_b, b, &error)) {
        std::fprintf(stderr, "tsm_diverge: %s\n", error.c_str());
        return 2;
    }

    const std::size_t common = std::min(a.size(), b.size());
    std::size_t idx = 0;
    while (idx < common && a[idx] == b[idx])
        ++idx;

    if (idx == common && a.size() == b.size()) {
        std::printf("journals identical: %zu events\n  A: %s\n  B: %s\n",
                    a.size(), path_a.c_str(), path_b.c_str());
        return 0;
    }

    std::printf("journals diverge at event %zu\n  A: %s (%zu events)\n"
                "  B: %s (%zu events)\n\n",
                idx, path_a.c_str(), a.size(), path_b.c_str(), b.size());

    if (context > 0 && idx > 0) {
        const std::size_t from = idx > context ? idx - context : 0;
        std::printf("last %zu matching events:\n", idx - from);
        for (std::size_t i = from; i < idx; ++i)
            printRecord("=", a[i]);
        std::printf("\n");
    }

    // The diverging event itself; one journal may simply have ended.
    const JournalRecord *ra = idx < a.size() ? &a[idx] : nullptr;
    const JournalRecord *rb = idx < b.size() ? &b[idx] : nullptr;
    if (ra && rb) {
        std::printf("first divergence (differs in %s):\n",
                    firstDifference(*ra, *rb));
        printRecord("A", *ra);
        printRecord("B", *rb);
    } else {
        std::printf("journal %s ends %zu events early:\n",
                    ra ? "B" : "A", (ra ? a.size() : b.size()) - idx);
        printRecord(ra ? "A" : "B", ra ? *ra : *rb);
    }

    // Causal ancestry: the diverging vector's journey so far, taken
    // from run A (the reference) — or B when only B has the event.
    const JournalRecord *probe = ra ? ra : rb;
    SpanId span = probe->span;
    const std::vector<JournalRecord> &ref = ra ? a : b;
    if (span == tsm::kSpanNone) {
        // Spanless event (e.g. a dispatch of untagged work): fall back
        // to the most recent spanned event, which is the transfer
        // context the divergence happened inside.
        for (std::size_t i = idx; i-- > 0;)
            if (ref[i].span != tsm::kSpanNone) {
                span = ref[i].span;
                std::printf("\ndiverging event carries no span; nearest "
                            "preceding spanned event is line %zu\n",
                            ref[i].line);
                break;
            }
    }
    if (span == tsm::kSpanNone) {
        std::printf("\nno causal span ancestry available\n");
        return 1;
    }

    auto chain = spanAncestry(ref, idx + 1, span);
    std::printf("\ncausal span ancestry of transfer %s "
                "(%zu events, oldest first%s):\n",
                tsm::spanStr(tsm::spanParent(span)).c_str(), chain.size(),
                chain.size() > ancestry_max ? ", truncated" : "");
    const std::size_t from =
        chain.size() > ancestry_max ? chain.size() - ancestry_max : 0;
    for (std::size_t i = from; i < chain.size(); ++i) {
        const JournalRecord &rec = *chain[i];
        std::printf("  [%s] %s\n", tsm::spanStr(rec.span).c_str(),
                    rec.raw.c_str());
    }
    return 1;
}
