/**
 * @file
 * an2bench — the an2sim benchmark program. One process runs one workload:
 *
 *     an2bench --workload fig3_pim16 --seed 1 --seconds 10 --trace 0
 *
 * --trace 0 times the production call paths with nothing inserted and
 * prints the end-to-end metrics. --trace 1 runs the same untimed phase,
 * then a second, traced phase on a fresh instance of the same seed that
 * times the calls into each layer from outside (generate, acceptCell,
 * runSlot, a forwarding Matcher decorator, Lan::run) and prints the
 * per-layer metrics. Both phases must report identical simulated
 * statistics. The last stdout line is one JSON object
 * {correct, attempted, failed, metrics}; the exit code is nonzero when
 * any check fails. See perfbench/README.md for definitions.
 */
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "an2/base/error.h"
#include "an2/harness/sweep.h"
#include "an2/matching/islip.h"
#include "an2/matching/pim.h"
#include "an2/matching/wordset.h"
#include "an2/sim/iq_switch.h"
#include "an2/sim/traffic.h"
#include "an2/topo/lan.h"
#include "an2/topo/topology.h"

namespace {

using namespace an2;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double>& v)
{
    return quantile(v, 0.5);
}

long
involuntaryContextSwitches()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_nivcsw;
}

/** VmHWM of this process. Unlike ru_maxrss it starts afresh at exec,
    so it excludes the memory of the process that launched this one. */
double
peakRssMiB()
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    AN2_REQUIRE(f != nullptr, "cannot read /proc/self/status");
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %ld kB", &kib) != 1)
            kib = -1;
    std::fclose(f);
    AN2_REQUIRE(kib > 0, "no VmHWM in /proc/self/status");
    return static_cast<double>(kib) / 1024.0;
}

/**
 * Set-up repetitions run between the untimed phase's chunks, after the
 * stats horizon, spread evenly over the measured window. Built in one
 * burst they would all sample the host in one moment, and the host this
 * was tuned on changes speed in episodes lasting seconds (see
 * kSwitchRateQuantile and HostProbe).
 */
struct Rebuilds
{
    std::function<void()> build;  ///< builds and discards one instance
    int count = 0;
    int done = 0;

    void due(double elapsed_s, double budget_s)
    {
        while (done < count &&
               elapsed_s >= budget_s * (done + 1) / (count + 1)) {
            build();
            ++done;
        }
    }

    void finish()
    {
        for (; done < count; ++done)
            build();
    }
};

/**
 * Host speed probe: a fixed xorshift loop over an L1-resident table,
 * independent of the library, run between chunks at most every 20 ms.
 * On the host this was tuned on, whole runs sped up or slowed down by up
 * to 2x with the load of other tenants, and the probe's time moved with
 * them (see perfbench/README.md, "Host noise"). Host-time metrics are
 * scaled by probe time / kProbeReferenceSeconds, so they read as the
 * values on a host where the probe takes that long.
 */
class HostProbe
{
  public:
    HostProbe()
    {
        for (uint32_t& t : table_)
            t = static_cast<uint32_t>(next());
    }

    HostProbe(const HostProbe&) = delete;
    HostProbe& operator=(const HostProbe&) = delete;

    /** Run the probe into `out` if 20 ms have passed since the last. */
    void maybeRun(Clock::time_point now, std::vector<double>& out)
    {
        if (now - last_ < std::chrono::milliseconds(20))
            return;
        const Clock::time_point t0 = Clock::now();
        uint64_t acc = 0;
        for (int i = 0; i < 40'000; ++i) {
            const uint64_t x = next();
            acc += table_[x & (kTableSize - 1)] * (x | 1);
        }
        last_ = Clock::now();
        sink_ = sink_ + acc;  // a volatile store keeps the loop
        out.push_back(secondsBetween(t0, last_));
    }

  private:
    uint64_t next()
    {
        x_ ^= x_ << 13;
        x_ ^= x_ >> 7;
        x_ ^= x_ << 17;
        return x_;
    }

    static constexpr size_t kTableSize = 4096;  // 16 KiB, fits L1
    std::array<uint32_t, kTableSize> table_{};
    uint64_t x_ = 88172645463325252ull;
    volatile uint64_t sink_ = 0;
    Clock::time_point last_{};
};

/** The probe's p5 time on the tuning host in a quiet period. */
constexpr double kProbeReferenceSeconds = 95e-6;

// ---------------------------------------------------------------------------
// The traced run's matcher decorator

/** What the decorator accumulates over the calls it forwards. */
struct MatchTally
{
    double seconds = 0.0;
    int64_t calls = 0;
    int64_t edges = 0;        ///< request edges offered
    int64_t size = 0;         ///< pairs matched
    int64_t fill_limit = 0;   ///< sum of min(inputs, outputs) requesting
    int64_t illegal = 0;      ///< matchings failing isLegalFor

    MatchTally& operator+=(const MatchTally& o)
    {
        seconds += o.seconds;
        calls += o.calls;
        edges += o.edges;
        size += o.size;
        fill_limit += o.fill_limit;
        illegal += o.illegal;
        return *this;
    }
};

/**
 * Forwards every call to the wrapped matcher and times matchInto() from
 * outside. The request matrix is only read, so warm-start epochs and
 * dirty sets reach the wrapped matcher untouched. One instance per
 * switch: on the LAN each is driven by one engine thread between
 * barriers, so the tally needs no synchronization.
 */
class TimedMatcher final : public Matcher
{
  public:
    explicit TimedMatcher(std::unique_ptr<Matcher> inner)
        : inner_(std::move(inner))
    {
    }

    Matching match(const RequestMatrix& req) override
    {
        Matching m(req.numInputs(), req.numOutputs());
        matchInto(req, m);
        return m;
    }

    void matchInto(const RequestMatrix& req, Matching& out) override
    {
        const Clock::time_point t0 = Clock::now();
        inner_->matchInto(req, out);
        const Clock::time_point t1 = Clock::now();
        tally.seconds += secondsBetween(t0, t1);
        ++tally.calls;
        tally.edges += req.numEdges();
        tally.size += out.size();
        int in_req = 0;
        for (PortId i = 0; i < req.numInputs(); ++i)
            in_req += wordset::anySet(req.rowMask(i), req.rowWords());
        int out_req = 0;
        for (PortId j = 0; j < req.numOutputs(); ++j)
            out_req += wordset::anySet(req.colMask(j), req.colWords());
        tally.fill_limit += std::min(in_req, out_req);
        if (!out.isLegalFor(req))
            ++tally.illegal;
    }

    std::string name() const override { return inner_->name(); }
    void reset() override { inner_->reset(); }

    MatchTally tally;

  private:
    std::unique_ptr<Matcher> inner_;
};

// ---------------------------------------------------------------------------
// Results shared by both workload kinds

/** Host-independent outcome at the stats horizon; compared exactly. */
struct SimStats
{
    int64_t injected = 0;
    int64_t delivered = 0;
    int64_t dropped = 0;
    double mean_delay_slots = 0.0;
    double delivered_ratio = 0.0;

    bool operator==(const SimStats&) const = default;
};

/**
 * Which chunk time the reported rate uses. The host this benchmark was
 * tuned on preempts its virtual CPUs in episodes lasting seconds,
 * slowing a fixed spin loop by up to 5x while the guest still sees
 * itself running. For the single-threaded switch workloads a whole-window
 * or median rate follows those episodes, while the rate at a low
 * quantile of ~0.5-1 ms chunks follows the simulator: most such chunks
 * run unpreempted even inside an episode. The LAN's two engine threads
 * meet at a barrier ~85 times a frame, so a chunk is clean only when
 * both are; its low quantiles varied more between runs than its median.
 */
constexpr double kSwitchRateQuantile = 0.05;
constexpr double kLanRateQuantile = 0.5;

/** One phase (untimed or traced) of one workload instance. */
struct Phase
{
    SimStats stats;
    int64_t attempted = 0;
    int64_t failed = 0;

    /** Host seconds of each measured chunk and its simulated slots. */
    std::vector<double> chunk_s;
    int64_t chunk_slots = 0;
    double rate_quantile = kSwitchRateQuantile;
    double window_s = 0.0;
    long invol_csw = 0;
    double peak_rss_mib = 0.0;  ///< VmHWM at the stats horizon
    std::vector<double> probe_s;  ///< HostProbe times during the window

    // Traced phase only: summed over the measured window.
    double traffic_s = 0.0;
    double accept_s = 0.0;
    double run_slot_s = 0.0;
    int64_t cells = 0;
    MatchTally match;
    int64_t windows = 0;
    int64_t forwards = 0;
    std::vector<double> frame_s;  ///< LAN: host seconds per switch frame

    int64_t measuredSlots() const
    {
        return chunk_slots * static_cast<int64_t>(chunk_s.size());
    }

    double totalChunkSeconds() const
    {
        double s = 0.0;
        for (double c : chunk_s)
            s += c;
        return s;
    }

    /** Chunk rate at the rate_quantile chunk time, as measured. */
    double rawSlotsPerSecond() const
    {
        return static_cast<double>(chunk_slots) /
               quantile(chunk_s, rate_quantile);
    }

    /** Host time scale: probe time at the same quantile over the
        reference (>1 when this host ran slower than the reference). */
    double hostSlowdown() const
    {
        return quantile(probe_s, rate_quantile) / kProbeReferenceSeconds;
    }

    /** The raw rate at the reference host speed (see HostProbe). */
    double slotsPerSecond() const
    {
        return rawSlotsPerSecond() * hostSlowdown();
    }
};

/** Medians over the repeated constructions of one workload. */
struct SetupTimes
{
    std::vector<double> total, build, lan_init, place_vbr, place_cbr;
};

void
printStats(const char* phase, const SimStats& s)
{
    std::printf("sim[%s]: injected=%" PRId64 " delivered=%" PRId64
                " dropped=%" PRId64 " mean_delay_slots=%.17g"
                " delivered_ratio=%.17g\n",
                phase, s.injected, s.delivered, s.dropped,
                s.mean_delay_slots, s.delivered_ratio);
}

// ---------------------------------------------------------------------------
// Single-switch workloads

struct SwitchWorkload
{
    const char* name;
    int n;
    double load;
    std::function<std::unique_ptr<Matcher>(uint64_t seed)> matcher;
    SlotTime warmup;
    SlotTime horizon;  ///< stats horizon; (horizon - warmup) % chunk == 0
    SlotTime chunk;
    int setup_reps;
};

struct SwitchRig
{
    std::unique_ptr<InputQueuedSwitch> sw;
    std::unique_ptr<UniformTraffic> traffic;
    TimedMatcher* timed = nullptr;  ///< owned by sw; null when untraced
};

SwitchRig
buildSwitch(const SwitchWorkload& w, uint64_t seed, bool traced)
{
    SwitchRig rig;
    std::unique_ptr<Matcher> m = w.matcher(harness::runSeed(seed, 0, 1));
    if (traced) {
        auto t = std::make_unique<TimedMatcher>(std::move(m));
        rig.timed = t.get();
        m = std::move(t);
    }
    rig.sw = std::make_unique<InputQueuedSwitch>(IqSwitchConfig{.n = w.n},
                                                 std::move(m));
    rig.traffic = std::make_unique<UniformTraffic>(
        w.n, w.load, harness::runSeed(seed, 0, 2));
    return rig;
}

/** Departure bookkeeping: per-flow order, delay, delivered counts. */
class Ledger
{
  public:
    Ledger(int n, SlotTime warmup, SlotTime horizon)
        : last_seq_(static_cast<size_t>(n) * static_cast<size_t>(n), -1),
          warmup_(warmup), horizon_(horizon)
    {
    }

    void depart(SlotTime slot, const std::vector<Cell>& cells)
    {
        for (const Cell& c : cells) {
            const auto f = static_cast<size_t>(c.flow);
            if (f >= last_seq_.size())
                last_seq_.resize(f + 1, -1);
            if (c.seq <= last_seq_[f])
                ++order_violations;
            last_seq_[f] = c.seq;
            ++delivered;
            if (slot < horizon_) {
                ++delivered_by_horizon;
                if (slot >= warmup_) {
                    delay_sum += slot - c.inject_slot;
                    ++delay_cells;
                }
            }
        }
    }

    int64_t delivered = 0;
    int64_t delivered_by_horizon = 0;
    int64_t order_violations = 0;
    int64_t delay_sum = 0;
    int64_t delay_cells = 0;

  private:
    std::vector<int64_t> last_seq_;
    SlotTime warmup_;
    SlotTime horizon_;
};

/** The production batched loop: arrivals from the generator, departures
    into the ledger. */
class LedgerDriver final : public SlotDriver
{
  public:
    LedgerDriver(TrafficGenerator& traffic, Ledger& ledger)
        : traffic_(traffic), ledger_(ledger)
    {
    }

    const std::vector<Cell>& beginSlot(SlotTime slot) override
    {
        arrivals_.clear();
        traffic_.generate(slot, arrivals_);
        return arrivals_;
    }

    void endSlot(SlotTime slot, const std::vector<Cell>& departed) override
    {
        ledger_.depart(slot, departed);
    }

  private:
    TrafficGenerator& traffic_;
    Ledger& ledger_;
    std::vector<Cell> arrivals_;
};

/** Cells the switch cannot account for: injected but neither delivered,
    buffered nor dropped (or the reverse). */
int64_t
conservationGap(const SwitchRig& rig, const Ledger& ledger)
{
    return std::llabs(rig.traffic->cellsInjected() -
                      (ledger.delivered + rig.sw->bufferedCells() +
                       rig.sw->droppedCells()));
}

Phase
runSwitch(const SwitchWorkload& w, SwitchRig& rig, double budget_s,
          Rebuilds& rebuilds)
{
    const bool traced = rig.timed != nullptr;
    Phase ph;
    HostProbe probe;
    Ledger ledger(w.n, w.warmup, w.horizon);
    LedgerDriver driver(*rig.traffic, ledger);
    SwitchModel& model = *rig.sw;  // the traced loop calls through the base
    std::vector<Cell> arrivals;
    arrivals.reserve(static_cast<size_t>(w.n));

    auto tracedSlots = [&](SlotTime first, SlotTime count) {
        for (SlotTime s = first; s < first + count; ++s) {
            const Clock::time_point t0 = Clock::now();
            arrivals.clear();
            rig.traffic->generate(s, arrivals);
            const Clock::time_point t1 = Clock::now();
            for (const Cell& c : arrivals)
                model.acceptCell(c);
            const Clock::time_point t2 = Clock::now();
            const std::vector<Cell>& departed = model.runSlot(s);
            const Clock::time_point t3 = Clock::now();
            ledger.depart(s, departed);
            ph.traffic_s += secondsBetween(t0, t1);
            ph.accept_s += secondsBetween(t1, t2);
            ph.run_slot_s += secondsBetween(t2, t3);
            ph.cells += static_cast<int64_t>(arrivals.size());
        }
    };
    auto runChunk = [&](SlotTime first, SlotTime count) {
        if (traced)
            tracedSlots(first, count);
        else
            rig.sw->runSlots(first, count, driver);
    };

    runChunk(0, w.warmup);
    ph.traffic_s = ph.accept_s = ph.run_slot_s = 0.0;
    ph.cells = 0;
    if (rig.timed)
        rig.timed->tally = MatchTally{};

    ph.chunk_slots = w.chunk;
    const long csw0 = involuntaryContextSwitches();
    const Clock::time_point start = Clock::now();
    SlotTime s = w.warmup;
    while (s < w.horizon ||
           secondsBetween(start, Clock::now()) < budget_s) {
        const Clock::time_point c0 = Clock::now();
        runChunk(s, w.chunk);
        const Clock::time_point c1 = Clock::now();
        ph.chunk_s.push_back(secondsBetween(c0, c1));
        probe.maybeRun(c1, ph.probe_s);
        s += w.chunk;
        if (s > w.horizon)
            rebuilds.due(secondsBetween(start, c1), budget_s);
        if (s == w.horizon) {
            ph.peak_rss_mib = peakRssMiB();
            ph.stats.injected = rig.traffic->cellsInjected();
            ph.stats.delivered = ledger.delivered_by_horizon;
            ph.stats.dropped = rig.sw->droppedCells();
            ph.stats.mean_delay_slots =
                static_cast<double>(ledger.delay_sum) /
                static_cast<double>(ledger.delay_cells);
            ph.stats.delivered_ratio =
                static_cast<double>(ph.stats.delivered) /
                static_cast<double>(ph.stats.injected);
        }
    }
    ph.window_s = secondsBetween(start, Clock::now());
    ph.invol_csw = involuntaryContextSwitches() - csw0;
    if (rig.timed)
        ph.match = rig.timed->tally;

    ph.attempted = rig.traffic->cellsInjected();
    ph.failed = conservationGap(rig, ledger) + ledger.order_violations;
    return ph;
}

// ---------------------------------------------------------------------------
// LAN workload

constexpr int kLanThreads = 2;
constexpr int64_t kLanWarmupFrames = 2;
constexpr int64_t kLanHorizonFrames = 14;
/** Slots per Lan::run call: short, so that many calls finish without the
    host preempting either engine thread. */
constexpr int64_t kLanChunkSlots = 10;
constexpr int kLanSetupReps = 7;

struct LanRig
{
    std::unique_ptr<topo::Topology> topology;
    std::unique_ptr<topo::Lan> lan;
    std::vector<TimedMatcher*> timed;  ///< owned by lan; empty untraced
    NetworkConfig net;
};

/** Build the netscale point; appends each step's host seconds. */
std::unique_ptr<LanRig>
buildLan(uint64_t seed, bool traced, SetupTimes& times)
{
    auto rig = std::make_unique<LanRig>();
    LanRig* r = rig.get();
    const Clock::time_point t0 = Clock::now();
    rig->topology = std::make_unique<topo::Topology>(
        topo::Topology::fatTree(16, 16));
    const Clock::time_point t1 = Clock::now();
    topo::LanConfig cfg;
    cfg.seed = harness::runSeed(seed, 0, 0);
    cfg.matcher = [r, traced](int, uint64_t s) -> std::unique_ptr<Matcher> {
        PimConfig pc;
        pc.iterations = 4;
        pc.seed = s;
        auto m = std::make_unique<PimMatcher>(pc);
        if (!traced)
            return m;
        auto t = std::make_unique<TimedMatcher>(std::move(m));
        r->timed.push_back(t.get());
        return t;
    };
    rig->net = cfg.net;
    rig->lan = std::make_unique<topo::Lan>(*rig->topology, cfg);
    const Clock::time_point t2 = Clock::now();
    const uint64_t place = harness::runSeed(seed, 0, 1);
    rig->lan->placeMatrix(topo::Pattern::Uniform,
                          topo::TrafficSpec{TrafficClass::VBR, 0.10, 0},
                          place);
    const Clock::time_point t3 = Clock::now();
    rig->lan->placeMatrix(topo::Pattern::Uniform,
                          topo::TrafficSpec{TrafficClass::CBR, 0.0, 1},
                          place + 1);
    const Clock::time_point t4 = Clock::now();
    times.build.push_back(secondsBetween(t0, t1));
    times.lan_init.push_back(secondsBetween(t1, t2));
    times.place_vbr.push_back(secondsBetween(t2, t3));
    times.place_cbr.push_back(secondsBetween(t3, t4));
    times.total.push_back(secondsBetween(t0, t4));
    return rig;
}

int64_t
forwards(const topo::LanStats& st)
{
    return st.cbr_forwarded + st.vbr_forwarded;
}

/** Failed cells: out of order, unroutable, or more leaving the network
    than entered it. */
int64_t
lanFailures(const topo::LanStats& st)
{
    return st.order_violations + st.unroutable +
           std::max<int64_t>(
               0, st.delivered + st.vbr_dropped + st.link_lost - st.injected);
}

Phase
runLan(LanRig& rig, double budget_s, Rebuilds& rebuilds)
{
    Phase ph;
    HostProbe probe;
    topo::Lan& lan = *rig.lan;
    const int64_t frame_slots = rig.net.switch_frame_slots;
    const int64_t warmup = kLanWarmupFrames * frame_slots;
    const int64_t horizon = kLanHorizonFrames * frame_slots;
    AN2_REQUIRE(frame_slots % kLanChunkSlots == 0,
                "LAN chunks must tile a frame");
    lan.run(warmup * rig.net.slot_ps, kLanThreads);
    for (TimedMatcher* t : rig.timed)
        t->tally = MatchTally{};

    ph.chunk_slots = kLanChunkSlots;
    ph.rate_quantile = kLanRateQuantile;
    const bool traced = !rig.timed.empty();
    const int64_t windows0 = lan.shardWindows();
    const int64_t forwards0 = traced ? forwards(lan.stats()) : 0;
    const long csw0 = involuntaryContextSwitches();
    const Clock::time_point start = Clock::now();
    int64_t slot = warmup;
    while (slot < horizon || slot % frame_slots != 0 ||
           secondsBetween(start, Clock::now()) < budget_s) {
        const Clock::time_point c0 = Clock::now();
        slot += kLanChunkSlots;
        lan.run(slot * rig.net.slot_ps, kLanThreads);
        const Clock::time_point c1 = Clock::now();
        ph.chunk_s.push_back(secondsBetween(c0, c1));
        probe.maybeRun(c1, ph.probe_s);
        if (slot > horizon)
            rebuilds.due(secondsBetween(start, c1), budget_s);
        if (slot == horizon) {
            ph.peak_rss_mib = peakRssMiB();
            const topo::LanStats st = lan.stats();
            ph.stats.injected = st.injected;
            ph.stats.delivered = st.delivered;
            ph.stats.dropped = st.vbr_dropped + st.link_lost;
            ph.stats.mean_delay_slots =
                st.mean_wall_latency_ps / static_cast<double>(rig.net.slot_ps);
            ph.stats.delivered_ratio = static_cast<double>(st.delivered) /
                                       static_cast<double>(st.injected);
        }
    }
    ph.window_s = secondsBetween(start, Clock::now());
    ph.invol_csw = involuntaryContextSwitches() - csw0;
    ph.windows = lan.shardWindows() - windows0;

    const size_t per_frame = static_cast<size_t>(frame_slots / kLanChunkSlots);
    for (size_t c = 0; c < ph.chunk_s.size(); c += per_frame) {
        double f = 0.0;
        for (size_t k = c; k < c + per_frame; ++k)
            f += ph.chunk_s[k];
        ph.frame_s.push_back(f);
    }

    const topo::LanStats st = lan.stats();
    if (traced)
        ph.forwards = forwards(st) - forwards0;
    for (const TimedMatcher* t : rig.timed)
        ph.match += t->tally;
    ph.attempted = st.injected;
    ph.failed = lanFailures(st);
    return ph;
}

// ---------------------------------------------------------------------------
// Output

class Metrics
{
  public:
    void add(const std::string& name, double value, const char* unit)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
                 unit + "\"}";
    }

    std::string json() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Per-layer metrics from the traced phase (plus the untimed phase's
    chunk percentiles and host noise). Layers a workload does not call
    from outside report 0. */
void
addLayerMetrics(Metrics& m, const Phase& untimed, const Phase& traced,
                const SetupTimes& setup, bool lan, int threads)
{
    const double slots = static_cast<double>(traced.measuredSlots());
    const double wall = traced.window_s;
    const double frames = static_cast<double>(traced.frame_s.size());
    const MatchTally& mt = traced.match;

    m.add("traffic.generate_us", ratio(traced.traffic_s * 1e6, slots), "us");
    m.add("traffic.share", ratio(traced.traffic_s, wall), "fraction");
    m.add("traffic.cells_per_slot",
          ratio(static_cast<double>(traced.cells), slots), "cells");
    m.add("queueing.accept_ns",
          ratio(traced.accept_s * 1e9, static_cast<double>(traced.cells)),
          "ns");
    m.add("queueing.accept_share", ratio(traced.accept_s, wall), "fraction");
    const double self_s = lan ? 0.0 : traced.run_slot_s - mt.seconds;
    m.add("sim.run_slot_self_us", ratio(self_s * 1e6, slots), "us");
    m.add("sim.run_slot_self_share", ratio(self_s, wall), "fraction");

    const double calls = static_cast<double>(mt.calls);
    m.add("matching.match_us", ratio(mt.seconds * 1e6, calls), "us");
    m.add("matching.share", ratio(mt.seconds, wall), "fraction");
    m.add("matching.cpu_share",
          ratio(mt.seconds,
                (lan ? traced.totalChunkSeconds() : wall) * threads),
          "fraction");
    m.add("matching.calls_per_slot", ratio(calls, slots), "calls");
    m.add("matching.edges_per_call",
          ratio(static_cast<double>(mt.edges), calls), "edges");
    m.add("matching.size_per_call",
          ratio(static_cast<double>(mt.size), calls), "pairs");
    m.add("matching.fill",
          ratio(static_cast<double>(mt.size),
                static_cast<double>(mt.fill_limit)),
          "fraction");
    m.add("matching.illegal", static_cast<double>(mt.illegal), "count");

    m.add("topo.build_s", lan ? median(setup.build) : 0.0, "s");
    m.add("topo.lan_init_s", lan ? median(setup.lan_init) : 0.0, "s");
    m.add("topo.place_vbr_s", lan ? median(setup.place_vbr) : 0.0, "s");
    m.add("topo.place_cbr_s", lan ? median(setup.place_cbr) : 0.0, "s");
    m.add("topo.frame_ms.p50", quantile(traced.frame_s, 0.5) * 1e3, "ms");
    m.add("topo.frame_ms.p90", quantile(traced.frame_s, 0.9) * 1e3, "ms");
    m.add("topo.windows_per_frame",
          ratio(static_cast<double>(traced.windows), frames), "windows");
    m.add("network.forwards_per_frame",
          ratio(static_cast<double>(traced.forwards), frames), "cells");

    const double per_slot_us = 1e6 / static_cast<double>(untimed.chunk_slots);
    m.add("sim.slot_us.p50", quantile(untimed.chunk_s, 0.5) * per_slot_us,
          "us");
    m.add("sim.slot_us.p90", quantile(untimed.chunk_s, 0.9) * per_slot_us,
          "us");
    const double attributed =
        lan ? traced.totalChunkSeconds()
            : traced.traffic_s + traced.accept_s + traced.run_slot_s;
    m.add("sim.unattributed_share", 1.0 - ratio(attributed, wall),
          "fraction");
    m.add("trace.overhead",
          ratio(traced.slotsPerSecond(), untimed.slotsPerSecond()), "ratio");
    m.add("host.probe_us", quantile(untimed.probe_s, 0.5) * 1e6, "us");
    m.add("host.invol_csw_per_s",
          ratio(static_cast<double>(untimed.invol_csw), untimed.window_s),
          "1/s");
}

void
addEndToEndMetrics(Metrics& m, const Phase& ph, const SetupTimes& setup)
{
    m.add("sim_slots_per_s", ph.slotsPerSecond(), "slots/s");
    // Set-up builds are spread over the window, so the median probe
    // time is the matching scale.
    m.add("setup_s",
          median(setup.total) * kProbeReferenceSeconds /
              quantile(ph.probe_s, 0.5),
          "s");
    m.add("peak_rss_mb", ph.peak_rss_mib, "MiB");
    m.add("sim_mean_delay_slots", ph.stats.mean_delay_slots, "slots");
    m.add("sim_delivered_ratio", ph.stats.delivered_ratio, "fraction");
}

void
describe(const char* what, const Phase& ph)
{
    std::fprintf(stderr,
                 "%s: %zu chunks of %" PRId64 " slots in %.3f s; "
                 "slot_us p5 %.3f p50 %.3f p90 %.3f; %.0f slots/s at "
                 "q%.2f, %.0f slots/s over the window; %zu probes, "
                 "p5 %.1f us, p50 %.1f us (scale %.4f); %ld involuntary "
                 "context switches\n",
                 what, ph.chunk_s.size(), ph.chunk_slots, ph.window_s,
                 quantile(ph.chunk_s, 0.05) * 1e6 /
                     static_cast<double>(ph.chunk_slots),
                 quantile(ph.chunk_s, 0.5) * 1e6 /
                     static_cast<double>(ph.chunk_slots),
                 quantile(ph.chunk_s, 0.9) * 1e6 /
                     static_cast<double>(ph.chunk_slots),
                 ph.rawSlotsPerSecond(), ph.rate_quantile,
                 static_cast<double>(ph.measuredSlots()) /
                     ph.totalChunkSeconds(),
                 ph.probe_s.size(), quantile(ph.probe_s, 0.05) * 1e6,
                 quantile(ph.probe_s, 0.5) * 1e6, ph.hostSlowdown(),
                 ph.invol_csw);
}

// ---------------------------------------------------------------------------
// Workload table and CLI

const std::vector<SwitchWorkload>&
switchWorkloads()
{
    static const std::vector<SwitchWorkload> kWorkloads = {
        {"fig3_pim16", 16, 0.9,
         [](uint64_t seed) -> std::unique_ptr<Matcher> {
             PimConfig pc;
             pc.iterations = 4;
             pc.accept = AcceptPolicy::Random;
             pc.seed = seed;
             return std::make_unique<PimMatcher>(pc);
         },
         /*warmup=*/20'000, /*horizon=*/420'000, /*chunk=*/200,
         /*setup_reps=*/201},
        {"voq_islip256", 256, 0.9,
         [](uint64_t) -> std::unique_ptr<Matcher> {
             return std::make_unique<IslipMatcher>(4, MatcherBackend::Auto,
                                                   WarmStart::On);
         },
         /*warmup=*/2'000, /*horizon=*/14'000, /*chunk=*/5,
         /*setup_reps=*/41},
    };
    return kWorkloads;
}

constexpr const char* kLanWorkload = "lan_fattree2048";

/** A built workload: a switch rig, or a LAN when `lan` is set. */
struct Instance
{
    SwitchRig sw;
    std::unique_ptr<LanRig> lan;
};

Instance
build(uint64_t seed, const SwitchWorkload* sw, bool traced,
      SetupTimes& times)
{
    Instance in;
    if (sw == nullptr) {
        in.lan = buildLan(seed, traced, times);
        return in;
    }
    const Clock::time_point t0 = Clock::now();
    in.sw = buildSwitch(*sw, seed, traced);
    times.total.push_back(secondsBetween(t0, Clock::now()));
    return in;
}

Phase
runPhase(const SwitchWorkload* sw, Instance& in, double budget_s,
         Rebuilds& rebuilds)
{
    Phase ph = sw ? runSwitch(*sw, in.sw, budget_s, rebuilds)
                  : runLan(*in.lan, budget_s, rebuilds);
    rebuilds.finish();
    return ph;
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
};

bool
parseArgs(int argc, char** argv, Args& a)
{
    if (argc % 2 == 0) {
        std::fprintf(stderr, "error: %s needs a value\n", argv[argc - 1]);
        return false;
    }
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        const char* v = argv[i + 1];
        char* end = nullptr;
        bool ok = true;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(v, &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v, &end);
            ok = a.seconds > 0.0;
        } else if (flag == "--trace") {
            a.trace = static_cast<int>(std::strtol(v, &end, 10));
            ok = a.trace == 0 || a.trace == 1;
        } else {
            std::fprintf(stderr, "error: unknown option %s\n", flag.c_str());
            return false;
        }
        if (!ok || (end != nullptr && (end == v || *end != '\0'))) {
            std::fprintf(stderr, "error: bad value for %s: %s\n",
                         flag.c_str(), v);
            return false;
        }
    }
    if (a.workload.empty()) {
        std::fprintf(stderr, "error: --workload is required\n");
        return false;
    }
    return true;
}

int
run(const Args& args)
{
    const bool traced = args.trace == 1;
    // --trace 1 splits the budget between the untimed and traced phases.
    const double budget = traced ? args.seconds / 2 : args.seconds;
    const bool lan = args.workload == kLanWorkload;
    const SwitchWorkload* sw = nullptr;  // null: the LAN workload
    for (const SwitchWorkload& w : switchWorkloads())
        if (args.workload == w.name)
            sw = &w;
    if (!lan && sw == nullptr) {
        std::fprintf(stderr, "error: unknown workload %s\n",
                     args.workload.c_str());
        return 2;
    }

    // The instance under test is the first set-up sample; the other
    // builds run inside its measured window (see Rebuilds). Each is
    // destroyed before the next chunk, so peak RSS, read at the stats
    // horizon before any of them, is that of one instance.
    SetupTimes setup;
    Instance inst = build(args.seed, sw, false, setup);
    Rebuilds rebuilds{[&] { build(args.seed, sw, false, setup); },
                      (sw ? sw->setup_reps : kLanSetupReps) - 1};
    const Phase untimed = runPhase(sw, inst, budget, rebuilds);
    inst = Instance{};
    Phase tphase;
    if (traced) {
        SetupTimes discard;
        Rebuilds none;
        inst = build(args.seed, sw, true, discard);
        tphase = runPhase(sw, inst, budget, none);
    }
    std::fprintf(stderr,
                 "setup: %zu builds, p10 %.6g s, median %.6g s, max %.6g s\n",
                 setup.total.size(), quantile(setup.total, 0.1),
                 median(setup.total), quantile(setup.total, 1.0));

    printStats("untimed", untimed.stats);
    describe("untimed", untimed);
    int64_t attempted = untimed.attempted;
    int64_t failed = untimed.failed;
    bool correct = true;
    Metrics m;
    if (traced) {
        printStats("traced", tphase.stats);
        describe("traced", tphase);
        attempted += tphase.attempted;
        failed += tphase.failed + tphase.match.illegal;
        if (!(tphase.stats == untimed.stats)) {
            std::fprintf(stderr, "error: traced and untimed runs of the "
                                 "same seed disagree on simulated "
                                 "statistics\n");
            correct = false;
        }
        addLayerMetrics(m, untimed, tphase, setup, lan,
                        lan ? kLanThreads : 1);
    } else {
        addEndToEndMetrics(m, untimed, setup);
    }
    if (failed != 0) {
        std::fprintf(stderr, "error: %" PRId64 " failed cells\n", failed);
        correct = false;
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRId64
                ", \"failed\": %" PRId64 ", \"metrics\": %s}\n",
                correct ? "true" : "false", attempted, failed,
                m.json().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

}  // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: %s --workload {fig3_pim16|voq_islip256|"
                     "lan_fattree2048} [--seed N] [--seconds S] "
                     "[--trace 0|1]\n",
                     argv[0]);
        return 2;
    }
    try {
        return run(args);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
