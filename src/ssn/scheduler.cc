#include "ssn/scheduler.hh"

#include <algorithm>

#include "common/format.hh"
#include "common/log.hh"

namespace tsm {

Cycle
NetworkSchedule::flowCompletion(FlowId f) const
{
    auto it = flows.find(f);
    TSM_ASSERT(it != flows.end(), "unknown flow");
    return it->second.lastArrival;
}

SsnScheduler::SsnScheduler(const Topology &topo, SsnConfig config)
    : topo_(&topo), config_(config)
{
    TSM_ASSERT(config_.maxPaths >= 1, "need at least one path");
}

namespace {

/**
 * Sparse per-chip instruction-issue slots: the model's C2C dispatch
 * issues at most one send instruction per cycle, so concurrent sends
 * from one chip must occupy distinct cycles (a single-sequence
 * simplification of the TSP's per-slice ICUs; see DESIGN.md).
 */
class IssueSlots
{
  public:
    explicit IssueSlots(unsigned num_chips) : used_(num_chips) {}

    /** Earliest cycle >= `c` with no send issuing on `chip`. */
    Cycle
    earliestFree(TspId chip, Cycle c) const
    {
        const auto &used = used_[chip];
        for (auto it = std::lower_bound(used.begin(), used.end(), c);
             it != used.end() && *it == c; ++it)
            ++c;
        return c;
    }

    void
    reserve(TspId chip, Cycle c)
    {
        auto &used = used_[chip];
        // Sends arrive nearly in cycle order.
        if (used.empty() || used.back() < c) {
            used.push_back(c);
            return;
        }
        const auto pos = std::lower_bound(used.begin(), used.end(), c);
        TSM_ASSERT(*pos != c, "chip issue slot double-booked");
        used.insert(pos, c);
    }

  private:
    /** Issue cycles taken by sends, sorted, per chip. */
    std::vector<std::vector<Cycle>> used_;
};

/** Working state of one schedule() invocation. */
class ScheduleBuilder
{
  public:
    ScheduleBuilder(const Topology &topo, const SsnConfig &config)
        : topo_(topo), config_(config),
          ledger_(topo.links().size()), slots_(topo.numTsps())
    {}

    void
    add(const TensorTransfer &t, FlowSummary &summary, NetworkSchedule &out)
    {
        TSM_ASSERT(t.src != t.dst, "transfer to self");
        TSM_ASSERT(t.vectors > 0, "empty transfer");

        auto raw = topo_.paths(t.src, t.dst, config_.maxExtraHops,
                               config_.maxPaths * 4);
        TSM_ASSERT(!raw.empty(), "no path between transfer endpoints");
        auto choices = toPathChoices(topo_, std::move(raw));
        if (choices.size() > config_.maxPaths)
            choices.resize(config_.maxPaths);
        if (!config_.loadBalance)
            choices.resize(1);

        summary.flow = t.flow;
        summary.vectors = t.vectors;
        summary.firstDeparture = ~Cycle(0);
        summary.earliest = t.earliest;

        std::vector<Cycle> next_inject(choices.size(), t.earliest);
        std::vector<bool> path_used(choices.size(), false);

        for (std::uint32_t v = 0; v < t.vectors; ++v) {
            Cycle best_arrival = ~Cycle(0);
            std::size_t best_path = 0;
            for (std::size_t p = 0; p < choices.size(); ++p) {
                // Unloaded latency bounds a path's arrival from below:
                // skip a path that cannot beat the best so far.
                if (next_inject[p] + choices[p].latencyCycles >=
                    best_arrival)
                    continue;
                const Cycle arrival = evaluate(t.src, choices[p].path,
                                               next_inject[p], cand_);
                if (arrival < best_arrival) {
                    best_arrival = arrival;
                    best_path = p;
                    best_.swap(cand_);
                }
            }
            TSM_ASSERT(best_arrival != ~Cycle(0), "no feasible path");

            for (const auto &hop : best_) {
                const Link &link = topo_.links()[hop.link];
                ledger_.reserve(hop.link, link.a == hop.from, hop.depart);
                slots_.reserve(hop.from, hop.depart);
            }
            next_inject[best_path] = best_.front().depart + ledger_.window();
            if (!path_used[best_path]) {
                path_used[best_path] = true;
                ++summary.pathsUsed;
            }

            ScheduledVector sv;
            sv.flow = t.flow;
            sv.seq = v;
            sv.hops = best_;
            summary.firstDeparture =
                std::min(summary.firstDeparture, sv.departure());
            summary.lastArrival =
                std::max(summary.lastArrival, sv.arrival());
            out.makespan = std::max(out.makespan, sv.arrival());
            out.vectors.push_back(std::move(sv));
        }
    }

  private:
    /**
     * Chain one vector down `path`, starting no earlier than `ready0`,
     * into `hops`; returns its arrival cycle.
     */
    Cycle
    evaluate(TspId src, const Topology::Path &path, Cycle ready0,
             std::vector<ScheduledHop> &hops) const
    {
        hops.clear();
        TspId at = src;
        Cycle ready = ready0;
        for (std::size_t h = 0; h < path.size(); ++h) {
            const LinkId l = path[h];
            const Link &link = topo_.links()[l];
            const bool from_a = link.a == at;
            // Departure requires the link serialization window and the
            // chip's issue slot to be simultaneously free.
            Cycle d = ready;
            for (;;) {
                d = ledger_.earliestFree(l, from_a, d);
                const Cycle d2 = slots_.earliestFree(at, d);
                if (d2 == d)
                    break;
                d = d2;
            }
            ScheduledHop hop;
            hop.link = l;
            hop.from = at;
            hop.depart = d;
            hop.arrive = d + flightCycles(link.cls);
            hops.push_back(hop);
            at = link.peer(at);
            ready = hop.arrive + forwardCycles();
        }
        return hops.back().arrive;
    }

    const Topology &topo_;
    const SsnConfig &config_;
    ReservationLedger ledger_;
    IssueSlots slots_;

    /** The best itinerary so far and the one being evaluated. */
    std::vector<ScheduledHop> best_, cand_;
};

} // namespace

NetworkSchedule
SsnScheduler::schedule(const std::vector<TensorTransfer> &transfers)
{
    NetworkSchedule out;
    std::size_t vectors = 0;
    for (const auto &t : transfers)
        vectors += t.vectors;
    out.vectors.reserve(vectors);
    ScheduleBuilder builder(*topo_, config_);
    for (const auto &t : transfers) {
        TSM_ASSERT(t.flow != kFlowInvalid && t.flow != 0,
                   "transfers need flow ids >= 1");
        const auto [summary, fresh] = out.flows.try_emplace(t.flow);
        TSM_ASSERT(fresh, "flow id {} is used twice", t.flow);
        builder.add(t, summary->second, out);
    }
    return out;
}

ValidationReport
validateSchedule(const NetworkSchedule &sched, const Topology &topo)
{
    ValidationReport report;
    const Cycle window = kScheduleWindowCycles;

    // Every serialization window checked, in schedule order.
    struct Window
    {
        std::uint64_t dir; // link * 2 + (departs from end b)
        Cycle start;
        std::uint32_t order; // position in schedule order
        std::uint32_t vector;
    };
    std::vector<Window> windows;

    // The first itinerary violation — checks (2) and (3) — and how
    // many windows preceded it: an overlap on one of those comes
    // first.
    std::string itinerary_violation;
    std::size_t itinerary_at = ~std::size_t(0);
    auto fail = [&](std::string why) {
        if (itinerary_at == ~std::size_t(0)) {
            itinerary_at = windows.size();
            itinerary_violation = std::move(why);
        }
    };

    for (std::size_t v = 0; v < sched.vectors.size(); ++v) {
        const ScheduledVector &sv = sched.vectors[v];
        if (sv.hops.empty()) {
            fail(format("flow {} seq {}: empty itinerary", sv.flow, sv.seq));
            continue;
        }
        TspId at = sv.hops.front().from;
        Cycle prev_arrive = 0;
        for (std::size_t h = 0; h < sv.hops.size(); ++h) {
            const auto &hop = sv.hops[h];
            const Link &link = topo.links()[hop.link];
            // (3) endpoints chain.
            if (hop.from != at) {
                fail(format("flow {} seq {}: hop {} departs from tsp{}, "
                            "expected tsp{}",
                            sv.flow, sv.seq, h, hop.from, at));
                break;
            }
            if (link.a != at && link.b != at) {
                fail(format("flow {} seq {}: hop {} uses a link not at "
                            "tsp{}",
                            sv.flow, sv.seq, h, at));
                break;
            }
            // (2) causality with the forward-pipeline gap.
            if (h > 0 && hop.depart < prev_arrive + forwardCycles()) {
                fail(format("flow {} seq {}: hop {} departs {} cycles "
                            "after landing (< forward pipeline {})",
                            sv.flow, sv.seq, h, hop.depart - prev_arrive,
                            forwardCycles()));
            }
            if (hop.arrive != hop.depart + flightCycles(link.cls)) {
                fail(format("flow {} seq {}: hop {} arrival inconsistent",
                            sv.flow, sv.seq, h));
            }
            windows.push_back({std::uint64_t(hop.link) * 2 +
                                   (link.a == at ? 0 : 1),
                               hop.depart, std::uint32_t(windows.size()),
                               std::uint32_t(v)});
            at = link.peer(at);
            prev_arrive = hop.arrive;
        }
    }
    report.windowsChecked = windows.size();

    // (1) disjoint serialization windows. A window starting at s
    // overlaps any other on its direction starting in
    // (s - window, s + window); sorted per direction, that is its
    // neighbours, so a clean schedule costs one comparison each way.
    // A window violates when it overlaps one earlier in schedule
    // order; it names that window's flow (lowest start, then first in
    // order).
    std::sort(windows.begin(), windows.end(),
              [](const Window &x, const Window &y) {
                  if (x.dir != y.dir)
                      return x.dir < y.dir;
                  if (x.start != y.start)
                      return x.start < y.start;
                  return x.order < y.order;
              });
    const Window *overlap = nullptr;
    const Window *overlapped = nullptr;
    for (std::size_t k = 0; k < windows.size(); ++k) {
        const Window &w = windows[k];
        const Cycle lo = w.start >= window - 1 ? w.start - (window - 1) : 0;
        const Cycle hi = w.start + window;
        if (hi < w.start)
            continue; // the window wraps the cycle counter
        std::size_t j = k;
        while (j > 0 && windows[j - 1].dir == w.dir &&
               windows[j - 1].start >= lo)
            --j;
        for (; j < windows.size() && windows[j].dir == w.dir &&
               windows[j].start < hi;
             ++j) {
            if (windows[j].order < w.order) {
                if (!overlap || w.order < overlap->order) {
                    overlap = &w;
                    overlapped = &windows[j];
                }
                break;
            }
        }
    }

    if (overlap && overlap->order < itinerary_at) {
        const ScheduledVector &sv = sched.vectors[overlap->vector];
        report.ok = false;
        report.firstViolation =
            format("flow {} seq {}: serialization window at cycle {} on "
                   "link {} overlaps flow {}",
                   sv.flow, sv.seq, overlap->start, overlap->dir / 2,
                   sched.vectors[overlapped->vector].flow);
    } else if (itinerary_at != ~std::size_t(0)) {
        report.ok = false;
        report.firstViolation = std::move(itinerary_violation);
    }
    return report;
}

bool
tryBuildPrograms(const NetworkSchedule &sched, const Topology &topo,
                 const std::unordered_map<FlowId, LocalAddr> &dst_base,
                 const std::unordered_map<FlowId, LocalAddr> &src_base,
                 ProgramSet &out, std::string *error)
{
    out = ProgramSet{};
    out.byChip.resize(topo.numTsps());
    auto capacityFail = [error](TspId chip, const std::string &what) {
        if (error)
            *error = "tsp" + std::to_string(chip) + ": " + what;
        return false;
    };

    // Gather every chip's instruction events in one list, then order
    // each chip's by issue cycle. A vector of k hops yields at most 4k
    // events: a spilled forward is a Recv, a Write, a Read and a Send,
    // and the two ends add at most a source Read and Send and a
    // destination Recv and Write. Reserving that bound means a few
    // spills never copy the whole list.
    struct Event
    {
        Cycle cycle;
        TspId chip;
        bool fixed; // sends keep their exact cycle; recvs may slide
        Instr instr;
    };
    std::vector<Event> events;
    {
        std::size_t hops = 0;
        for (const auto &sv : sched.vectors)
            hops += sv.hops.size();
        events.reserve(4 * hops);
    }

    // Per-chip stream registers: freeAt[s] = first cycle the register
    // may be overwritten.
    std::vector<std::array<Cycle, kNumStreams>> stream_free(
        topo.numTsps());
    for (auto &sf : stream_free)
        sf.fill(0);

    // Stream 0 is reserved for the caller-preloaded payload
    // convention; the allocator hands out 1..63.
    auto try_alloc_stream = [&](TspId chip, Cycle from,
                                Cycle until) -> int {
        for (unsigned s = 1; s < kNumStreams; ++s) {
            if (stream_free[chip][s] <= from) {
                stream_free[chip][s] = until;
                return int(s);
            }
        }
        return -1;
    };
    const std::string kOverflow =
        "more than " + std::to_string(kNumStreams) +
        " vectors in flight through stream registers";

    // Cut-through spill buffer: when a forwarded vector must be held
    // longer than the stream registers can cover, it is parked in
    // local SRAM — "we use the local SRAM storage on each TSP to
    // provide intermediate buffering" (paper §2.3). The spill region
    // grows upward from the top of memory, cycling within a window.
    constexpr std::uint32_t kSpillWords = 16384;
    constexpr std::uint32_t kSpillBase = LocalAddr::kWords - kSpillWords;
    std::vector<std::uint32_t> spill_cursor(topo.numTsps(), 0);
    auto alloc_spill = [&](TspId chip) {
        const std::uint32_t word =
            kSpillBase + (spill_cursor[chip]++ % kSpillWords);
        return LocalAddr::unflatten(word);
    };

    for (const auto &sv : sched.vectors) {
        for (std::size_t h = 0; h < sv.hops.size(); ++h) {
            const auto &hop = sv.hops[h];
            const Link &link = topo.links()[hop.link];
            const TspId to = link.peer(hop.from);
            const unsigned tx_port = link.portAt(hop.from);
            const unsigned rx_port = link.portAt(to);
            const bool last_hop = h + 1 == sv.hops.size();

            // Receive side: at intermediate hops the vector is parked
            // in a stream register (or spilled to SRAM under
            // pressure) until its onward send; at the destination it
            // is received and (optionally) written to memory.
            const Cycle rx_cycle = hop.arrive + kRxMarginCycles;
            const Cycle hold_until =
                last_hop ? rx_cycle + 2 : sv.hops[h + 1].depart + 1;
            // A vector that must wait long for its onward link (the
            // link is congested with other scheduled traffic) parks
            // in SRAM rather than monopolizing a stream register.
            constexpr Cycle kMaxStreamHold = 400;
            int stream = -1;
            if (last_hop || hold_until - rx_cycle <= kMaxStreamHold)
                stream = try_alloc_stream(to, rx_cycle, hold_until);

            if (stream < 0) {
                if (last_hop)
                    return capacityFail(
                        to, "destination receive could not get a "
                            "stream register — " + kOverflow);
                // Spill path: Recv -> Write(SRAM) ... Read -> Send,
                // with two short stream holds instead of a long one.
                const Cycle send_at = sv.hops[h + 1].depart;
                const int s_in =
                    try_alloc_stream(to, rx_cycle, rx_cycle + 2);
                const int s_out =
                    try_alloc_stream(to, send_at - 4, send_at + 1);
                if (s_in < 0 || s_out < 0)
                    return capacityFail(to, kOverflow);
                const LocalAddr scratch = alloc_spill(to);

                Instr rx;
                rx.op = Op::Recv;
                rx.port = std::uint8_t(rx_port);
                rx.dst = std::uint8_t(s_in);
                rx.flow = sv.flow;
                rx.seq = sv.seq;
                rx.hop = std::uint8_t(h);
                rx.lastHop = false;
                rx.issueAt = rx_cycle;
                events.push_back({rx_cycle, to, false, rx});

                Instr wr;
                wr.op = Op::Write;
                wr.srcA = std::uint8_t(s_in);
                wr.addr = scratch;
                wr.issueAt = rx_cycle + 1;
                events.push_back({rx_cycle + 1, to, false, wr});

                Instr rd;
                rd.op = Op::Read;
                rd.dst = std::uint8_t(s_out);
                rd.addr = scratch;
                rd.issueAt = send_at - 4;
                events.push_back({send_at - 4, to, false, rd});

                Instr fwd;
                fwd.op = Op::Send;
                fwd.port = std::uint8_t(
                    topo.links()[sv.hops[h + 1].link].portAt(to));
                fwd.srcA = std::uint8_t(s_out);
                fwd.flow = sv.flow;
                fwd.seq = sv.seq;
                fwd.hop = std::uint8_t(h + 1);
                fwd.issueAt = send_at;
                events.push_back({send_at, to, true, fwd});
            } else {
                Instr rx;
                rx.op = Op::Recv;
                rx.port = std::uint8_t(rx_port);
                rx.dst = std::uint8_t(stream);
                rx.flow = sv.flow;
                rx.seq = sv.seq;
                rx.hop = std::uint8_t(h);
                rx.lastHop = last_hop;
                rx.issueAt = rx_cycle;
                events.push_back({rx_cycle, to, false, rx});

                if (!last_hop) {
                    // Onward send from the intermediate hop.
                    Instr fwd;
                    fwd.op = Op::Send;
                    fwd.port = std::uint8_t(
                        topo.links()[sv.hops[h + 1].link].portAt(to));
                    fwd.srcA = std::uint8_t(stream);
                    fwd.flow = sv.flow;
                    fwd.seq = sv.seq;
                    fwd.hop = std::uint8_t(h + 1);
                    fwd.issueAt = sv.hops[h + 1].depart;
                    events.push_back({sv.hops[h + 1].depart, to, true, fwd});
                }
            }

            if (last_hop) {
                auto it = dst_base.find(sv.flow);
                if (it != dst_base.end()) {
                    Instr wr;
                    wr.op = Op::Write;
                    wr.srcA = std::uint8_t(stream);
                    wr.addr = LocalAddr::unflatten(it->second.flatten() +
                                                   sv.seq);
                    wr.issueAt = rx_cycle + 1;
                    events.push_back({rx_cycle + 1, to, false, wr});
                }
            }

            if (h == 0) {
                // Source send. With a src_base the vector is read
                // from memory into a briefly-held stream register
                // just before departure; otherwise stream register 0
                // carries the payload by convention.
                unsigned tx_stream = 0;
                if (auto it = src_base.find(sv.flow);
                    it != src_base.end()) {
                    const Cycle read_at =
                        hop.depart >= 12 ? hop.depart - 12 : 0;
                    const int s = try_alloc_stream(hop.from, read_at,
                                                   hop.depart + 1);
                    if (s < 0)
                        return capacityFail(hop.from, kOverflow);
                    tx_stream = unsigned(s);
                    Instr rd;
                    rd.op = Op::Read;
                    rd.dst = std::uint8_t(tx_stream);
                    rd.addr = LocalAddr::unflatten(it->second.flatten() +
                                                   sv.seq);
                    rd.issueAt = read_at;
                    events.push_back({read_at, hop.from, false, rd});
                }
                Instr tx;
                tx.op = Op::Send;
                tx.port = std::uint8_t(tx_port);
                tx.srcA = std::uint8_t(tx_stream);
                tx.flow = sv.flow;
                tx.seq = sv.seq;
                tx.hop = 0;
                tx.issueAt = hop.depart;
                events.push_back({hop.depart, hop.from, true, tx});
            }
        }
    }

    // Bucket the events by chip, in generation order.
    const unsigned chips = topo.numTsps();
    std::vector<std::uint32_t> chip_begin(chips + 1, 0);
    for (const Event &e : events)
        ++chip_begin[e.chip + 1];
    for (unsigned c = 0; c < chips; ++c)
        chip_begin[c + 1] += chip_begin[c];
    std::vector<std::uint32_t> by_chip(events.size());
    {
        std::vector<std::uint32_t> fill(chip_begin.begin(),
                                        chip_begin.end() - 1);
        for (std::uint32_t i = 0; i < events.size(); ++i)
            by_chip[fill[events[i].chip]++] = i;
    }

    // Order a chip's events by cycle, ties in generation order, by
    // sorting (cycle, index) keys rather than the events themselves.
    struct Key
    {
        Cycle cycle;
        std::uint32_t event;
        bool operator<(const Key &o) const
        {
            return cycle != o.cycle ? cycle < o.cycle : event < o.event;
        }
    };
    std::vector<Key> keys;
    std::vector<Cycle> send_cycles;
    for (TspId chip = 0; chip < chips; ++chip) {
        keys.clear();
        for (std::uint32_t k = chip_begin[chip]; k < chip_begin[chip + 1];
             ++k)
            keys.push_back({events[by_chip[k]].cycle, by_chip[k]});
        std::sort(keys.begin(), keys.end());

        // Sends keep their exact cycles (their link windows are
        // reserved and guaranteed distinct by IssueSlots); receives
        // and writes slide onto the nearest later cycle that is free
        // of sends and of each other.
        send_cycles.clear();
        for (const Key &k : keys)
            if (events[k.event].fixed)
                send_cycles.push_back(k.cycle);
        TSM_ASSERT(std::adjacent_find(send_cycles.begin(),
                                      send_cycles.end()) ==
                       send_cycles.end(),
                   "two sends scheduled on one chip at one cycle");
        Cycle last_flexible = 0;
        bool any_flexible = false;
        // Flexible cycles only grow, so one cursor walks the sends.
        std::size_t next_send = 0;
        for (Key &k : keys) {
            Event &e = events[k.event];
            Cycle c = e.cycle;
            if (!e.fixed) {
                if (any_flexible && c <= last_flexible)
                    c = last_flexible + 1;
                while (next_send < send_cycles.size() &&
                       send_cycles[next_send] < c)
                    ++next_send;
                while (next_send < send_cycles.size() &&
                       send_cycles[next_send] == c) {
                    ++c;
                    ++next_send;
                }
                if (c - e.cycle >= 64)
                    return capacityFail(
                        chip, "receive slid too far from its arrival; "
                              "issue pressure exceeds the "
                              "forward-pipeline margin");
                last_flexible = c;
                any_flexible = true;
            }
            e.instr.issueAt = c;
            k.cycle = c;
        }
        // Merge into one strictly increasing instruction sequence.
        std::sort(keys.begin(), keys.end());
        auto &instrs = out.byChip[chip].instrs;
        // One slot more for the Halt every runner appends, which would
        // otherwise reallocate (and double) the whole program.
        instrs.reserve(keys.size() + 1);
        Cycle prev = 0;
        bool first = true;
        for (const Key &k : keys) {
            TSM_ASSERT(first || k.cycle > prev,
                       "instruction issue cycles not strictly increasing");
            prev = k.cycle;
            first = false;
            instrs.push_back(events[k.event].instr);
        }

        // Dataflow sanity: every Send from a managed stream register
        // must consume a value written (Recv/Read) after that
        // stream's previous Send — catches any receive/read that slid
        // past its consumer.
        std::array<Cycle, kNumStreams> last_write;
        std::array<Cycle, kNumStreams> last_consume;
        last_write.fill(0);
        last_consume.fill(0);
        bool wrote0 = false;
        for (const auto &i : out.byChip[chip].instrs) {
            if (i.op == Op::Recv || i.op == Op::Read) {
                last_write[i.dst] = i.issueAt;
                wrote0 |= i.dst == 0;
            } else if (i.op == Op::Send) {
                if (i.srcA != 0 || wrote0) {
                    if (last_write[i.srcA] <= last_consume[i.srcA] ||
                        last_write[i.srcA] >= i.issueAt)
                        return capacityFail(
                            chip,
                            "send at cycle " +
                                std::to_string(i.issueAt) +
                                " consumes stream " +
                                std::to_string(unsigned(i.srcA)) +
                                " with no fresh value — an upstream "
                                "read/receive slid past it");
                }
                last_consume[i.srcA] = i.issueAt;
            }
        }
    }
    return true;
}

ProgramSet
buildPrograms(const NetworkSchedule &sched, const Topology &topo,
              const std::unordered_map<FlowId, LocalAddr> &dst_base,
              const std::unordered_map<FlowId, LocalAddr> &src_base)
{
    ProgramSet out;
    std::string error;
    const bool ok =
        tryBuildPrograms(sched, topo, dst_base, src_base, out, &error);
    TSM_ASSERT(ok, "buildPrograms: {}", error);
    return out;
}

} // namespace tsm
