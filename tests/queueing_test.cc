// Tests for the queueing substrates: the random-access input buffer
// with per-flow FIFOs and eligible-flow lists, and output queues.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>

#include "an2/base/ring.h"
#include "an2/base/rng.h"
#include "an2/matching/wordset.h"
#include "an2/queueing/output_queue.h"
#include "an2/queueing/voq.h"

namespace an2 {
namespace {

Cell
makeCell(FlowId flow, PortId input, PortId output, int64_t seq)
{
    Cell c;
    c.flow = flow;
    c.input = input;
    c.output = output;
    c.seq = seq;
    return c;
}

// ---------------------------------------------------------- InputBuffer

TEST(InputBufferTest, CountsPerOutput)
{
    InputBuffer buf(4);
    buf.enqueue(makeCell(0, 0, 1, 0));
    buf.enqueue(makeCell(0, 0, 1, 1));
    buf.enqueue(makeCell(1, 0, 2, 0));
    EXPECT_EQ(buf.totalCells(), 3);
    EXPECT_EQ(buf.cellCountFor(1), 2);
    EXPECT_EQ(buf.cellCountFor(2), 1);
    EXPECT_EQ(buf.cellCountFor(0), 0);
    EXPECT_TRUE(buf.hasCellFor(1));
    EXPECT_FALSE(buf.hasCellFor(3));
}

TEST(InputBufferTest, PerFlowFifoOrder)
{
    InputBuffer buf(4);
    for (int s = 0; s < 10; ++s)
        buf.enqueue(makeCell(0, 0, 2, s));
    for (int s = 0; s < 10; ++s)
        EXPECT_EQ(buf.dequeueFor(2).seq, s);
}

TEST(InputBufferTest, RoundRobinAmongFlowsOfSameOutput)
{
    // Two flows, both to output 1; service must alternate (§3.3).
    InputBuffer buf(4);
    for (int s = 0; s < 3; ++s) {
        buf.enqueue(makeCell(10, 0, 1, s));
        buf.enqueue(makeCell(20, 0, 1, s));
    }
    std::vector<FlowId> order;
    while (buf.hasCellFor(1))
        order.push_back(buf.dequeueFor(1).flow);
    ASSERT_EQ(order.size(), 6u);
    EXPECT_EQ(order[0], 10);
    EXPECT_EQ(order[1], 20);
    EXPECT_EQ(order[2], 10);
    EXPECT_EQ(order[3], 20);
}

TEST(InputBufferTest, EligibleFlowCount)
{
    InputBuffer buf(4);
    EXPECT_EQ(buf.eligibleFlowsFor(1), 0);
    buf.enqueue(makeCell(1, 0, 1, 0));
    buf.enqueue(makeCell(2, 0, 1, 0));
    buf.enqueue(makeCell(1, 0, 1, 1));
    EXPECT_EQ(buf.eligibleFlowsFor(1), 2);
}

TEST(InputBufferTest, DequeueEmptyOutputRejected)
{
    InputBuffer buf(4);
    EXPECT_THROW(buf.dequeueFor(0), UsageError);
}

TEST(InputBufferTest, DequeueSpecificFlow)
{
    InputBuffer buf(4);
    buf.enqueue(makeCell(5, 0, 3, 0));
    buf.enqueue(makeCell(6, 0, 3, 0));
    EXPECT_TRUE(buf.flowHasCell(6));
    Cell c = buf.dequeueFlow(6);
    EXPECT_EQ(c.flow, 6);
    EXPECT_FALSE(buf.flowHasCell(6));
    EXPECT_EQ(buf.cellCountFor(3), 1);
}

TEST(InputBufferTest, StaleEligibleEntryAfterDequeueFlow)
{
    // dequeueFlow leaves a stale entry in the eligible list; a later
    // dequeueFor must skip it and still find the live flow.
    InputBuffer buf(4);
    buf.enqueue(makeCell(1, 0, 2, 0));  // flow 1 listed first
    buf.enqueue(makeCell(2, 0, 2, 0));
    buf.dequeueFlow(1);  // empties flow 1, entry goes stale
    ASSERT_TRUE(buf.hasCellFor(2));
    EXPECT_EQ(buf.dequeueFor(2).flow, 2);
    EXPECT_FALSE(buf.hasCellFor(2));
}

TEST(InputBufferTest, ReEnqueueAfterStaleEntryStillReachable)
{
    InputBuffer buf(4);
    buf.enqueue(makeCell(1, 0, 2, 0));
    buf.dequeueFlow(1);  // stale but still listed
    buf.enqueue(makeCell(1, 0, 2, 1));  // flag prevents double listing
    EXPECT_EQ(buf.dequeueFor(2).seq, 1);
    EXPECT_EQ(buf.totalCells(), 0);
}

TEST(InputBufferTest, InvalidCellsRejected)
{
    InputBuffer buf(2);
    Cell no_flow = makeCell(kNoFlow, 0, 0, 0);
    EXPECT_THROW(buf.enqueue(no_flow), UsageError);
    Cell bad_out = makeCell(0, 0, 5, 0);
    EXPECT_THROW(buf.enqueue(bad_out), UsageError);
}

TEST(InputBufferTest, FlowCannotChangeOutput)
{
    // All cells of a flow take the same path (paper §2); a cell of an
    // existing flow claiming a different output is a routing bug.
    InputBuffer buf(4);
    buf.enqueue(makeCell(1, 0, 2, 0));
    EXPECT_THROW(buf.enqueue(makeCell(1, 0, 3, 1)), UsageError);
    // The original output remains bound even after the queue drains.
    buf.dequeueFor(2);
    EXPECT_THROW(buf.enqueue(makeCell(1, 0, 3, 1)), UsageError);
    EXPECT_NO_THROW(buf.enqueue(makeCell(1, 0, 2, 1)));
}

TEST(InputBufferTest, DequeueFlowWithoutCellRejected)
{
    InputBuffer buf(2);
    EXPECT_THROW(buf.dequeueFlow(3), UsageError);
}

// ---------------------------------------------------------- OutputQueue

TEST(OutputQueueTest, FifoAndOccupancy)
{
    OutputQueue q;
    for (int s = 0; s < 4; ++s)
        q.push(makeCell(0, 0, 0, s));
    q.noteOccupancy();
    EXPECT_EQ(q.size(), 4);
    EXPECT_EQ(q.maxOccupancy(), 4);
    EXPECT_EQ(q.pop().seq, 0);
    q.noteOccupancy();
    EXPECT_EQ(q.maxOccupancy(), 4);  // peak is sticky
}

TEST(OutputQueueTest, PopEmptyPanics)
{
    OutputQueue q;
    EXPECT_THROW(q.pop(), InternalError);
}

// ------------------------------------------------- InputBuffer occupancy

TEST(InputBufferTest, OccupancyMaskTracksQueuedOutputs)
{
    InputBuffer buf(70);  // two mask words
    EXPECT_EQ(buf.occupancyWords(), 2);
    EXPECT_FALSE(wordset::anySet(buf.occupancyMask(), 2));

    buf.enqueue(makeCell(1, 0, 3, 0));
    buf.enqueue(makeCell(1, 0, 3, 1));
    buf.enqueue(makeCell(2, 0, 68, 2));
    EXPECT_TRUE(wordset::testBit(buf.occupancyMask(), 3));
    EXPECT_TRUE(wordset::testBit(buf.occupancyMask(), 68));
    EXPECT_EQ(wordset::popcountAll(buf.occupancyMask(), 2), 2);

    // The bit stays while any cell remains, clears on the last dequeue.
    buf.dequeueFor(3);
    EXPECT_TRUE(wordset::testBit(buf.occupancyMask(), 3));
    buf.dequeueFor(3);
    EXPECT_FALSE(wordset::testBit(buf.occupancyMask(), 3));
    buf.dequeueFor(68);
    EXPECT_FALSE(wordset::anySet(buf.occupancyMask(), 2));
}

TEST(InputBufferTest, OccupancyMaskTracksDequeueFlow)
{
    InputBuffer buf(8);
    buf.enqueue(makeCell(5, 0, 2, 0));
    EXPECT_TRUE(wordset::testBit(buf.occupancyMask(), 2));
    buf.dequeueFlow(5);
    EXPECT_FALSE(wordset::testBit(buf.occupancyMask(), 2));
}

// ------------------------------------------------------------- RingQueue

TEST(RingQueueTest, FifoOrderAcrossGrowth)
{
    RingQueue<int> q;
    EXPECT_TRUE(q.empty());
    for (int i = 0; i < 100; ++i)
        q.push_back(i);
    EXPECT_EQ(q.size(), 100u);
    EXPECT_EQ(q.at(7), 7);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(q.front(), i);
        q.pop_front();
    }
    EXPECT_TRUE(q.empty());
}

TEST(RingQueueTest, RotationWrapsAroundStorage)
{
    // pop_front + push_back cycles far beyond the capacity: the head
    // index must wrap without corrupting FIFO order.
    RingQueue<int> q;
    for (int i = 0; i < 5; ++i)
        q.push_back(i);
    for (int i = 5; i < 500; ++i) {
        EXPECT_EQ(q.front(), i - 5);
        q.pop_front();
        q.push_back(i);
    }
    EXPECT_EQ(q.size(), 5u);
    for (int i = 495; i < 500; ++i) {
        EXPECT_EQ(q.front(), i);
        q.pop_front();
    }
}

TEST(RingQueueTest, ClearResetsWithoutShrinking)
{
    RingQueue<int> q;
    for (int i = 0; i < 20; ++i)
        q.push_back(i);
    q.clear();
    EXPECT_TRUE(q.empty());
    q.push_back(42);
    EXPECT_EQ(q.front(), 42);
}

// -------------------------------------- InputBuffer differential model

/**
 * Reference model of the random-access input buffer's general path:
 * one std::deque per queue key and, per output, a round-robin list of
 * listed keys. dequeueFlow() leaves an emptied key listed (a stale
 * entry); dequeueFor() discards stale entries as it meets them, serves
 * the first live key and rotates it to the back while it stays
 * non-empty. The real buffer's single-flow fast path and cell slab must
 * be indistinguishable from this.
 */
class InputBufferModel
{
  public:
    explicit InputBufferModel(int n_outputs)
        : rr_(static_cast<size_t>(n_outputs))
    {
    }

    /** Output key k is bound to, or kNoPort. */
    PortId outputOf(FlowId k) const
    {
        auto it = flows_.find(k);
        return it == flows_.end() ? kNoPort : it->second.output;
    }

    size_t lengthOf(FlowId k) const
    {
        auto it = flows_.find(k);
        return it == flows_.end() ? 0 : it->second.cells.size();
    }

    /** Keys currently bound to output j. */
    int boundKeys(PortId j) const
    {
        int n = 0;
        for (const auto& kv : flows_)
            n += kv.second.output == j ? 1 : 0;
        return n;
    }

    void enqueueAs(FlowId k, const Cell& c)
    {
        Flow& f = flows_[k];
        if (f.output == kNoPort)
            f.output = c.output;
        f.cells.push_back(c);
        if (!f.listed) {
            rr_[static_cast<size_t>(c.output)].push_back(k);
            f.listed = true;
        }
    }

    /** Serves output j; `stale` counts the stale entries skipped. */
    Cell dequeueFor(PortId j, int* stale)
    {
        auto& list = rr_[static_cast<size_t>(j)];
        while (true) {
            FlowId k = list.front();
            list.pop_front();
            Flow& f = flows_[k];
            if (f.cells.empty()) {
                f.listed = false;
                ++*stale;
                continue;
            }
            Cell c = f.cells.front();
            f.cells.pop_front();
            if (!f.cells.empty())
                list.push_back(k);
            else
                f.listed = false;
            return c;
        }
    }

    Cell dequeueFlow(FlowId k)
    {
        Flow& f = flows_[k];
        Cell c = f.cells.front();
        f.cells.pop_front();
        return c;
    }

    void rebindFlow(FlowId k, PortId to)
    {
        auto it = flows_.find(k);
        if (it == flows_.end())
            return;
        Flow& f = it->second;
        if (f.output == kNoPort || f.output == to)
            return;
        unlist(k, f);
        if (f.cells.empty()) {
            f.output = kNoPort;
            return;
        }
        for (Cell& c : f.cells)
            c.output = to;
        f.output = to;
        rr_[static_cast<size_t>(to)].push_back(k);
        f.listed = true;
    }

    int purgeFlow(FlowId k)
    {
        auto it = flows_.find(k);
        if (it == flows_.end() || it->second.output == kNoPort)
            return 0;
        Flow& f = it->second;
        unlist(k, f);
        auto n = static_cast<int>(f.cells.size());
        f.cells.clear();
        f.output = kNoPort;
        return n;
    }

    int cellCountFor(PortId j) const
    {
        int n = 0;
        for (const auto& kv : flows_)
            if (kv.second.output == j)
                n += static_cast<int>(kv.second.cells.size());
        return n;
    }

    int eligibleFlowsFor(PortId j) const
    {
        int n = 0;
        for (FlowId k : rr_[static_cast<size_t>(j)])
            if (!flows_.at(k).cells.empty())
                ++n;
        return n;
    }

    int total() const
    {
        int n = 0;
        for (const auto& kv : flows_)
            n += static_cast<int>(kv.second.cells.size());
        return n;
    }

  private:
    struct Flow
    {
        std::deque<Cell> cells;
        PortId output = kNoPort;
        bool listed = false;
    };

    void unlist(FlowId k, Flow& f)
    {
        if (!f.listed)
            return;
        auto& list = rr_[static_cast<size_t>(f.output)];
        list.erase(std::find(list.begin(), list.end(), k));
        f.listed = false;
    }

    std::map<FlowId, Flow> flows_;
    std::vector<std::deque<FlowId>> rr_;
};

void
expectSameCell(const Cell& got, const Cell& want)
{
    EXPECT_EQ(got.flow, want.flow);
    EXPECT_EQ(got.output, want.output);
    EXPECT_EQ(got.seq, want.seq);
}

TEST(InputBufferTest, MatchesReferenceModelOnRandomOperations)
{
    // Few outputs and a handful of keys, so outputs start single-flow
    // and then gain further flows, and every operation meets queued
    // cells often.
    constexpr int kOutputs = 4;
    constexpr int kKeys = 7;
    int transitions = 0;       // a second flow binding to an output
    int stale_skipped = 0;     // stale entries dequeueFor discarded
    int deep_rebinds = 0;      // rebindFlow moving >= 2 cells
    int rebound_after_purge = 0;
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        Xoshiro256 rng(seed);
        InputBuffer buf(kOutputs);
        InputBufferModel model(kOutputs);
        std::map<FlowId, bool> purged;  // purged, not yet re-bound
        int64_t next_seq = 0;
        for (int op = 0; op < 3000; ++op) {
            auto k = static_cast<FlowId>(rng.nextBelow(kKeys));
            auto j = static_cast<PortId>(rng.nextBelow(kOutputs));
            const size_t kind =
                rng.pickWeighted(std::vector<int>{8, 4, 9, 2, 1, 1});
            switch (kind) {
            case 0:
            case 1: {  // enqueue, or enqueueAs under a merged key
                PortId out = model.outputOf(k);
                if (out == kNoPort) {
                    out = j;
                    if (model.boundKeys(out) == 1)
                        ++transitions;
                    if (purged[k])
                        ++rebound_after_purge;
                    purged[k] = false;
                }
                Cell c = makeCell(k, 0, out, next_seq++);
                if (kind == 0) {
                    buf.enqueue(c);
                } else {
                    c.flow = 100 + k;  // the key, not the cell, picks the FIFO
                    buf.enqueueAs(k, c);
                }
                model.enqueueAs(k, c);
                break;
            }
            case 2:  // dequeueFor
                if (model.cellCountFor(j) > 0)
                    expectSameCell(buf.dequeueFor(j),
                                   model.dequeueFor(j, &stale_skipped));
                else
                    EXPECT_FALSE(buf.hasCellFor(j));
                break;
            case 3:  // dequeueFlow: queue keys double as flow ids
                if (model.lengthOf(k) > 0) {
                    expectSameCell(buf.dequeueFlow(k), model.dequeueFlow(k));
                } else {
                    EXPECT_FALSE(buf.flowHasCell(k));
                }
                break;
            case 4:  // rebindFlow
                if (model.lengthOf(k) >= 2 && model.outputOf(k) != j)
                    ++deep_rebinds;
                model.rebindFlow(k, j);
                buf.rebindFlow(k, j);
                break;
            case 5: {  // purgeFlow
                const bool bound = model.outputOf(k) != kNoPort;
                EXPECT_EQ(buf.purgeFlow(k), model.purgeFlow(k));
                if (bound)
                    purged[k] = true;
                break;
            }
            }
            ASSERT_EQ(buf.totalCells(), model.total())
                << "seed " << seed << " op " << op;
            for (PortId p = 0; p < kOutputs; ++p) {
                ASSERT_EQ(buf.cellCountFor(p), model.cellCountFor(p))
                    << "seed " << seed << " op " << op << " output " << p;
                ASSERT_EQ(buf.eligibleFlowsFor(p), model.eligibleFlowsFor(p))
                    << "seed " << seed << " op " << op << " output " << p;
                ASSERT_EQ(wordset::testBit(buf.occupancyMask(), p),
                          model.cellCountFor(p) > 0);
            }
        }
        // Drain every output; the order must still agree.
        for (PortId p = 0; p < kOutputs; ++p)
            while (model.cellCountFor(p) > 0)
                expectSameCell(buf.dequeueFor(p),
                               model.dequeueFor(p, &stale_skipped));
        EXPECT_EQ(buf.totalCells(), 0);
    }
    // The interesting paths were all exercised.
    EXPECT_GT(transitions, 0);
    EXPECT_GT(stale_skipped, 0);
    EXPECT_GT(deep_rebinds, 0);
    EXPECT_GT(rebound_after_purge, 0);
}

TEST(InputBufferTest, StaleSoleFlowKeepsItsSeatAcrossSecondBinding)
{
    // The sole flow of an output is emptied by dequeueFlow (its seat goes
    // stale), a second flow binds, then the first refills: the stale
    // seat still stands ahead of the newcomer, as on the general path.
    InputBuffer buf(2);
    buf.enqueue(makeCell(1, 0, 0, 0));
    buf.dequeueFlow(1);
    buf.enqueue(makeCell(2, 0, 0, 1));
    buf.enqueue(makeCell(1, 0, 0, 2));
    EXPECT_EQ(buf.dequeueFor(0).flow, 1);
    EXPECT_EQ(buf.dequeueFor(0).flow, 2);
}

TEST(InputBufferTest, SlabStopsGrowingOnceOccupancyStopsRising)
{
    InputBuffer buf(8);
    EXPECT_EQ(buf.cellCapacity(), 0);  // nothing reserved up front
    buf.enqueue(makeCell(0, 0, 0, 0));
    EXPECT_EQ(buf.cellCapacity(), 8);
    buf.dequeueFor(0);

    // Fill to 20 cells across many flows: the slab doubles to 32.
    Xoshiro256 rng(7);
    int64_t seq = 0;
    for (int c = 0; c < 20; ++c) {
        auto f = static_cast<FlowId>(rng.nextBelow(40));
        buf.enqueue(makeCell(f, 0, f % 8, seq++));
    }
    EXPECT_EQ(buf.cellCapacity(), 32);

    // Churn at or below that occupancy: freed slots are reused, so the
    // slab never grows again.
    for (int round = 0; round < 5000; ++round) {
        auto j = static_cast<PortId>(rng.nextBelow(8));
        if (buf.totalCells() >= 20 ||
            (buf.hasCellFor(j) && rng.nextBernoulli(0.5))) {
            while (!buf.hasCellFor(j))
                j = (j + 1) % 8;
            buf.dequeueFor(j);
        } else {
            auto f = static_cast<FlowId>(rng.nextBelow(40));
            buf.enqueue(makeCell(f, 0, f % 8, seq++));
        }
        ASSERT_EQ(buf.cellCapacity(), 32) << "round " << round;
    }
}

}  // namespace
}  // namespace an2
