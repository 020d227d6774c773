#include "ssn/dump.hh"

#include <algorithm>
#include <map>
#include <vector>

#include "common/format.hh"

namespace tsm {

std::string
disassemble(const Program &program)
{
    std::string out;
    for (std::size_t i = 0; i < program.instrs.size(); ++i)
        out += format("{:>5}: {}\n", std::uint64_t(i),
                      program.instrs[i].str());
    return out;
}

std::string
dumpSchedule(const NetworkSchedule &sched, const Topology &topo,
             unsigned max_lines)
{
    struct Line
    {
        Cycle depart;
        std::string text;
    };
    std::vector<Line> lines;
    for (const auto &sv : sched.vectors) {
        for (const auto &hop : sv.hops) {
            const Link &link = topo.links()[hop.link];
            lines.push_back(
                {hop.depart,
                 format("[{:>7}..{:>7}] link{:<4} {}->{}  flow{}:{}",
                        hop.depart, hop.arrive, hop.link, hop.from,
                        link.peer(hop.from), sv.flow, sv.seq)});
        }
    }
    std::sort(lines.begin(), lines.end(),
              [](const Line &a, const Line &b) {
                  return a.depart < b.depart;
              });
    std::string out;
    unsigned emitted = 0;
    for (const auto &l : lines) {
        if (max_lines && emitted >= max_lines) {
            out += format("... ({} more windows)\n",
                          std::uint64_t(lines.size() - emitted));
            break;
        }
        out += l.text + '\n';
        ++emitted;
    }
    return out;
}

std::string
dumpFlowSummaries(const NetworkSchedule &sched)
{
    std::vector<const FlowSummary *> flows;
    for (const auto &[id, f] : sched.flows)
        flows.push_back(&f);
    std::sort(flows.begin(), flows.end(),
              [](const FlowSummary *a, const FlowSummary *b) {
                  return a->flow < b->flow;
              });
    std::string out;
    for (const FlowSummary *f : flows) {
        out += format(
            "flow {:>4}: {:>6} vectors over {} path(s), cycles "
            "{}..{}\n",
            f->flow, f->vectors, f->pathsUsed, f->firstDeparture,
            f->lastArrival);
    }
    return out;
}

std::string
dumpLinkUtilization(const NetworkSchedule &sched, const Topology &topo,
                    unsigned bar_width)
{
    const Cycle window = kScheduleWindowCycles;
    std::map<std::uint64_t, std::uint64_t> windows; // dir -> count
    for (const auto &sv : sched.vectors) {
        for (const auto &hop : sv.hops) {
            const Link &link = topo.links()[hop.link];
            const std::uint64_t dir =
                std::uint64_t(hop.link) * 2 +
                (link.a == hop.from ? 0 : 1);
            ++windows[dir];
        }
    }
    std::string out;
    const double span = double(std::max<Cycle>(sched.makespan, 1));
    for (const auto &[dir, count] : windows) {
        const LinkId l = LinkId(dir / 2);
        const Link &link = topo.links()[l];
        const TspId from = dir % 2 == 0 ? link.a : link.b;
        const double util =
            std::min(1.0, double(count) * double(window) / span);
        const auto bar = unsigned(util * bar_width);
        out += format("link{:<4} {:>3}->{:<3} |{:<{}}| {:>5.1f}%\n", l,
                      from, link.peer(from),
                      std::string(bar, '#'), bar_width, util * 100.0);
    }
    return out;
}

} // namespace tsm
