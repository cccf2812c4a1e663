/**
 * @file
 * Unit tests for the DES kernel, RNG, and statistics primitives.
 */

#include <gtest/gtest.h>

#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "src/sim/event_queue.hh"
#include "src/sim/logging.hh"
#include "src/sim/rng.hh"
#include "src/sim/stats.hh"

namespace jumanji {
namespace {

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; i++) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; i++)
        if (a.next() == b.next()) same++;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; i++) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(9);
    for (int i = 0; i < 1000; i++) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, ExponentialMeanApprox)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; i++) sum += rng.exponential(100.0);
    EXPECT_NEAR(sum / n, 100.0, 5.0);
}

TEST(Rng, ForkDecorrelates)
{
    Rng parent(5);
    Rng child = parent.fork();
    int same = 0;
    for (int i = 0; i < 100; i++)
        if (parent.next() == child.next()) same++;
    EXPECT_LT(same, 3);
}

class CountingAgent : public Agent
{
  public:
    explicit CountingAgent(Tick period, int maxRuns = -1)
        : period_(period), maxRuns_(maxRuns)
    {
    }

    Tick
    resume(Tick now) override
    {
        runs++;
        lastTick = now;
        if (maxRuns_ >= 0 && runs >= maxRuns_) return kTickMax;
        return now + period_;
    }

    int runs = 0;
    Tick lastTick = 0;

  private:
    Tick period_;
    int maxRuns_;
};

TEST(EventQueue, RunsAgentsInOrder)
{
    EventQueue queue;
    CountingAgent fast(10);
    CountingAgent slow(100);
    queue.schedule(&fast, 0);
    queue.schedule(&slow, 0);
    queue.runUntil(1000);
    EXPECT_EQ(fast.runs, 100);
    EXPECT_EQ(slow.runs, 10);
}

TEST(EventQueue, StopsAtBoundary)
{
    EventQueue queue;
    CountingAgent agent(10);
    queue.schedule(&agent, 0);
    queue.runUntil(55);
    // Runs at 0,10,20,30,40,50 — not at 60.
    EXPECT_EQ(agent.runs, 6);
    EXPECT_EQ(queue.now(), 55u);
}

TEST(EventQueue, RetiredAgentStops)
{
    EventQueue queue;
    CountingAgent agent(10, 3);
    queue.schedule(&agent, 5);
    queue.runUntil(10000);
    EXPECT_EQ(agent.runs, 3);
}

TEST(EventQueue, ZeroDelaySelfLoopAdvances)
{
    // An agent returning its own wake time must still make progress.
    class Stubborn : public Agent
    {
      public:
        Tick
        resume(Tick now) override
        {
            runs++;
            return runs < 10 ? now : kTickMax;
        }
        int runs = 0;
    };
    EventQueue queue;
    Stubborn agent;
    queue.schedule(&agent, 0);
    queue.runUntil(1000);
    EXPECT_EQ(agent.runs, 10);
}

TEST(EventQueue, DeterministicTieBreak)
{
    // Two agents scheduled at the same tick run in schedule order.
    class Recorder : public Agent
    {
      public:
        Recorder(std::vector<int> *log, int id) : log_(log), id_(id) {}
        Tick
        resume(Tick) override
        {
            log_->push_back(id_);
            return kTickMax;
        }

      private:
        std::vector<int> *log_;
        int id_;
    };

    std::vector<int> log;
    Recorder a(&log, 1), b(&log, 2), c(&log, 3);
    EventQueue queue;
    queue.schedule(&a, 50);
    queue.schedule(&b, 50);
    queue.schedule(&c, 50);
    queue.runUntil(100);
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
}

/**
 * Randomized differential test of the kernel's heap: the same agents
 * driven through EventQueue and through a reference kernel built on
 * std::priority_queue must resume in exactly the same (agent, tick)
 * sequence and stop at the same ticks.
 */
class ScriptedAgent : public Agent
{
  public:
    ScriptedAgent(int id, std::uint64_t seed,
                  std::vector<std::pair<int, Tick>> *log)
        : id_(id), rng_(seed), log_(log)
    {
    }

    Tick
    resume(Tick now) override
    {
        log_->emplace_back(id_, now);
        std::uint64_t roll = rng_.below(100);
        if (roll < 1) return kTickMax;           // retire
        if (roll < 13) return now;               // zero delay: clamped
        if (roll < 18) return now / 2;           // past: clamped
        if (roll < 50) return now + 1 + rng_.below(3); // dense ties
        return now + 1 + rng_.below(200);
    }

  private:
    int id_;
    Rng rng_;
    std::vector<std::pair<int, Tick>> *log_;
};

/** The pre-heap kernel: pop, resume, push, on std::priority_queue. */
class ReferenceQueue
{
  public:
    void
    schedule(Agent *agent, Tick when)
    {
        heap_.push(Entry{when, seq_++, agent});
    }

    Tick now() const { return now_; }

    Tick
    runUntil(Tick until)
    {
        while (!heap_.empty() && heap_.top().when < until) {
            Entry e = heap_.top();
            heap_.pop();
            now_ = e.when;
            Tick next = e.agent->resume(now_);
            if (next != kTickMax) {
                if (next <= now_) next = now_ + 1;
                heap_.push(Entry{next, seq_++, e.agent});
            }
        }
        if (now_ < until) now_ = until;
        return now_;
    }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Agent *agent;

        bool
        operator>(const Entry &o) const
        {
            if (when != o.when) return when > o.when;
            return seq > o.seq;
        }
    };

    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
    std::uint64_t seq_ = 0;
    Tick now_ = 0;
};

class EventQueueDifferential : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EventQueueDifferential, MatchesPriorityQueueReference)
{
    const int kAgents = 21;
    std::vector<std::pair<int, Tick>> gotLog, wantLog;
    std::vector<std::unique_ptr<ScriptedAgent>> got, want;
    for (int a = 0; a < kAgents; a++) {
        std::uint64_t seed = GetParam() * 1000 + static_cast<std::uint64_t>(a);
        got.push_back(std::make_unique<ScriptedAgent>(a, seed, &gotLog));
        want.push_back(std::make_unique<ScriptedAgent>(a, seed, &wantLog));
    }

    EventQueue queue;
    ReferenceQueue ref;
    Rng plan(GetParam());
    int scheduled = 0;
    auto scheduleSome = [&](int n) {
        for (int i = 0; i < n && scheduled < kAgents; i++, scheduled++) {
            // Start ticks cluster so several agents tie at start.
            Tick when = queue.now() + plan.below(4) * 5;
            queue.schedule(got[scheduled].get(), when);
            ref.schedule(want[scheduled].get(), when);
        }
    };
    scheduleSome(8);
    for (int step = 0; step < 200; step++) {
        // Boundaries: sometimes the current tick (a no-op), often a
        // tick an agent is due at, sometimes far ahead.
        Tick until = queue.now() + plan.below(3) * plan.below(60);
        ASSERT_EQ(queue.runUntil(until), ref.runUntil(until))
            << "step " << step;
        if (step % 20 == 0) scheduleSome(3);
    }
    queue.runToCompletion();
    ref.runUntil(kTickMax);

    ASSERT_GT(wantLog.size(), 1000u);
    ASSERT_EQ(gotLog.size(), wantLog.size());
    for (std::size_t i = 0; i < wantLog.size(); i++) {
        ASSERT_EQ(gotLog[i], wantLog[i]) << "resume " << i;
    }
    EXPECT_TRUE(queue.empty());
    EXPECT_EQ(queue.now(), ref.now());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueDifferential,
                         ::testing::Values(1, 2, 3, 17, 4242));

TEST(SampleStat, PercentilesSorted)
{
    SampleStat stat;
    for (int i = 100; i >= 1; i--) stat.add(i);
    EXPECT_DOUBLE_EQ(stat.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(stat.percentile(100), 100.0);
    EXPECT_NEAR(stat.percentile(50), 50.5, 0.01);
    EXPECT_NEAR(stat.percentile(95), 95.05, 0.1);
}

TEST(SampleStat, EmptyIsZero)
{
    SampleStat stat;
    EXPECT_EQ(stat.percentile(95), 0.0);
    EXPECT_EQ(stat.mean(), 0.0);
    EXPECT_EQ(stat.count(), 0u);
}

TEST(SampleStat, MeanMinMax)
{
    SampleStat stat;
    stat.add(2.0);
    stat.add(4.0);
    stat.add(9.0);
    EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
    EXPECT_DOUBLE_EQ(stat.min(), 2.0);
    EXPECT_DOUBLE_EQ(stat.max(), 9.0);
}

TEST(SampleStat, PercentileLinearInterpolationPinned)
{
    // Regression for the documented definition: linear interpolation
    // between the two nearest ranks (numpy's default). With samples
    // {10, 20, 30, 40, 50}, rank(p) = p/100 * 4.
    SampleStat stat;
    for (double v : {50.0, 10.0, 40.0, 20.0, 30.0}) stat.add(v);
    EXPECT_DOUBLE_EQ(stat.percentile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(stat.percentile(50.0), 30.0);
    EXPECT_DOUBLE_EQ(stat.percentile(25.0), 20.0);
    // p95: rank 3.8 -> 40 * 0.2 + 50 * 0.8 = 48.
    EXPECT_DOUBLE_EQ(stat.percentile(95.0), 48.0);
    EXPECT_DOUBLE_EQ(stat.percentile(100.0), 50.0);
}

TEST(Logging, FatalThrows)
{
    EXPECT_THROW(fatal("bad config"), FatalError);
    EXPECT_THROW(panic("bug"), PanicError);
}

TEST(AccessCounters, Accumulate)
{
    AccessCounters a, b;
    a.llcHits = 5;
    b.llcHits = 7;
    b.nocHops = 3;
    a += b;
    EXPECT_EQ(a.llcHits, 12u);
    EXPECT_EQ(a.nocHops, 3u);
}

} // namespace
} // namespace jumanji
