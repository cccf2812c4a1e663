/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The simulator is agent-based: each Agent (a core running an app, an
 * attacker thread, the runtime's epoch timer) is resumed at its next
 * wake-up tick and returns the tick at which it next wants to run.
 * A binary heap orders agents by wake-up time; ties break by a stable
 * sequence number so runs are deterministic.
 *
 * The heap is hand-rolled rather than a std::priority_queue because
 * the common step -- resume the earliest agent and reschedule it --
 * is then one sift-down of the top slot instead of a pop (sift-down)
 * followed by a push (sift-up). (when, seq) is a strict total order,
 * so any valid heap surfaces entries in exactly the same sequence.
 */

#ifndef JUMANJI_SIM_EVENT_QUEUE_HH
#define JUMANJI_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/check.hh"
#include "src/sim/types.hh"

namespace jumanji {

/**
 * Something that executes at discrete ticks.
 *
 * resume() performs the agent's next unit of work (e.g., one memory
 * access plus the compute burst before it) and returns the tick at
 * which the agent should next be resumed, or kTickMax to retire.
 */
class Agent
{
  public:
    virtual ~Agent() = default;

    /**
     * Runs the agent's next step.
     *
     * @param now The current simulated tick.
     * @return The tick at which to resume this agent next;
     *         kTickMax retires the agent permanently.
     */
    virtual Tick resume(Tick now) = 0;
};

/**
 * The DES kernel: schedules agents and advances simulated time.
 *
 * The running agent's entry stays at the top of the heap until its
 * resume() returns, and is then overwritten in place. An agent may
 * schedule() others from resume(), but never earlier than now().
 */
class EventQueue
{
  public:
    /** Registers @p agent to first run at @p when. Non-owning. */
    void
    schedule(Agent *agent, Tick when)
    {
        heap_.push_back(Entry{when, seq_++, agent});
        siftUp(heap_.size() - 1);
    }

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** True when no agent remains scheduled. */
    bool empty() const { return heap_.empty(); }

    /**
     * Runs agents until simulated time reaches @p until or the queue
     * drains. Agents scheduled exactly at @p until do not run.
     *
     * @return The tick at which execution stopped.
     */
    Tick
    runUntil(Tick until)
    {
        while (!heap_.empty() && heap_.front().when < until) {
            const Entry top = heap_.front();
            // Event-queue monotonicity: the heap must never surface
            // an event from the past.
            JUMANJI_INVARIANT(top.when >= now_,
                              "event queue went backwards in time");
            now_ = top.when;
            checkSetTick(now_);
            Tick next = top.agent->resume(now_);
            JUMANJI_INVARIANT(heap_.front().seq == top.seq,
                              "an agent scheduled into the past");
            if (next != kTickMax) {
                // Time must advance; a zero-delay self-loop would hang.
                if (next <= now_) next = now_ + 1;
                siftDownFromTop(Entry{next, seq_++, top.agent});
            } else {
                // Retire: the last entry takes the vacated top slot.
                const Entry last = heap_.back();
                heap_.pop_back();
                if (!heap_.empty()) siftDownFromTop(last);
            }
        }
        if (now_ < until) now_ = until;
        checkSetTick(now_);
        return now_;
    }

    /** Runs until the queue drains. */
    Tick
    runToCompletion()
    {
        return runUntil(kTickMax);
    }

  private:
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Agent *agent;
    };

    /** Strict (when, seq) order: true if @p a runs before @p b. */
    static bool
    before(const Entry &a, const Entry &b)
    {
        if (a.when != b.when) return a.when < b.when;
        return a.seq < b.seq;
    }

    void
    siftUp(std::size_t i)
    {
        const Entry e = heap_[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!before(e, heap_[parent])) break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = e;
    }

    /** Places @p e in the top slot and restores the heap below it. */
    void
    siftDownFromTop(const Entry &e)
    {
        const std::size_t n = heap_.size();
        std::size_t i = 0;
        for (;;) {
            std::size_t child = 2 * i + 1;
            if (child >= n) break;
            if (child + 1 < n && before(heap_[child + 1], heap_[child]))
                child++;
            if (!before(heap_[child], e)) break;
            heap_[i] = heap_[child];
            i = child;
        }
        heap_[i] = e;
    }

    /** Min-heap on (when, seq); heap_[0] runs next. */
    std::vector<Entry> heap_;
    std::uint64_t seq_ = 0;
    Tick now_ = 0;
};

} // namespace jumanji

#endif // JUMANJI_SIM_EVENT_QUEUE_HH
