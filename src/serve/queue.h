/**
 * @file
 * Sharded MPMC bounded work queue with stealing.
 *
 * The paper's software-trend analysis (Section 3.3) shows serving
 * throughput is won by keeping many independent calls in flight, not
 * by accelerating one call; the replay engine therefore spreads work
 * over per-worker queue shards so the common case (a worker draining
 * its home shard) takes one uncontended lock, and only imbalance pays
 * for cross-shard traffic (stealing).
 *
 * Concurrency design:
 *  - Each shard has its own mutex + not-full condvar + deque, so
 *    producers and consumers on different shards never contend.
 *  - A global signal mutex guards a signed pending-item counter and
 *    the work-available condvar. Producers insert into the shard
 *    first, then increment; consumers remove first, then decrement.
 *    A scanner can therefore pop an item before its producer has
 *    incremented, transiently driving the counter negative — which is
 *    why it is signed. It is never negative at quiescence.
 *  - A producer facing a full shard waits on its not-full condvar
 *    until a time point it chooses (push's @p until). That one
 *    primitive is every admission decision: kNoDeadline is lossless
 *    backpressure, "now" is load shedding, a request's deadline is a
 *    bounded wait. No caller polls.
 *  - close() wakes everyone. push() checks the closed flag under the
 *    shard lock, so nothing enters a closed queue; pop() returns false
 *    only when closed and drained, so no accepted item is ever lost
 *    on shutdown.
 *  - Lock order: a shard mutex may be held while taking the signal
 *    mutex (push's closed check), never the reverse.
 */

#ifndef CDPU_SERVE_QUEUE_H_
#define CDPU_SERVE_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.h"

namespace cdpu::serve
{

using QueueClock = std::chrono::steady_clock;

/** A push deadline that never expires: wait for room or for close(). */
inline constexpr QueueClock::time_point kNoDeadline =
    QueueClock::time_point::max();

template <typename T> class ShardedWorkQueue
{
  public:
    /**
     * @param shards        Number of independent shards (clamped >= 1).
     * @param shard_capacity Max items per shard before a push waits.
     */
    ShardedWorkQueue(unsigned shards, std::size_t shard_capacity)
        : capacity_(shard_capacity > 0 ? shard_capacity : 1)
    {
        if (shards == 0)
            shards = 1;
        shards_.reserve(shards);
        for (unsigned i = 0; i < shards; ++i)
            shards_.push_back(std::make_unique<Shard>());
    }

    unsigned shardCount() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    /**
     * Enqueues @p item on shard (@p home % shards), waiting for room
     * until @p until: kNoDeadline waits as long as it takes, a time
     * point at or before now does not wait at all. Returns true once
     * the item is in, and only then moves from @p item; a full shard
     * at @p until or a closed queue returns false with @p item intact.
     */
    bool push(unsigned home, T &item, QueueClock::time_point until)
    {
        Shard &shard = *shards_[home % shards_.size()];
        {
            std::unique_lock<std::mutex> lock(shard.mutex);
            const auto ready = [&] {
                return shard.items.size() < capacity_ || isClosed();
            };
            // wait_until(max()) can overflow converting to the
            // condvar's clock, so "never give up" takes plain wait().
            if (until == kNoDeadline)
                shard.notFull.wait(lock, ready);
            else if (!shard.notFull.wait_until(lock, until, ready))
                return false;
            if (isClosed())
                return false;
            shard.items.push_back(std::move(item));
        }
        {
            std::lock_guard<std::mutex> lock(signalMutex_);
            ++pending_;
        }
        workAvailable_.notify_one();
        return true;
    }

    /**
     * Dequeues into @p item, preferring shard (@p home % shards) and
     * scanning the others when it is dry. Blocks while the queue is
     * open but empty. Returns false only when closed and fully
     * drained. @p stolen (optional) reports whether the item came
     * from a non-home shard.
     */
    bool pop(unsigned home, T &item, bool *stolen = nullptr)
    {
        for (;;) {
            if (tryPop(home, item, stolen))
                return true;
            std::unique_lock<std::mutex> lock(signalMutex_);
            if (pending_ > 0)
                continue; // raced with a producer; rescan
            if (closed_)
                return false;
            workAvailable_.wait(
                lock, [&] { return pending_ > 0 || closed_; });
        }
    }

    /** Non-blocking pop with the same stealing order as pop(). */
    bool tryPop(unsigned home, T &item, bool *stolen = nullptr)
    {
        const unsigned count = shardCount();
        for (unsigned i = 0; i < count; ++i) {
            unsigned index = (home + i) % count;
            Shard &shard = *shards_[index];
            {
                std::lock_guard<std::mutex> lock(shard.mutex);
                if (shard.items.empty())
                    continue;
                item = std::move(shard.items.front());
                shard.items.pop_front();
            }
            {
                std::lock_guard<std::mutex> lock(signalMutex_);
                --pending_;
            }
            shard.notFull.notify_one();
            if (stolen)
                *stolen = i != 0;
            return true;
        }
        return false;
    }

    /** Rejects every later push, wakes the waiting ones (they return
     *  false) and lets consumers drain what was accepted. */
    void close()
    {
        {
            std::lock_guard<std::mutex> lock(signalMutex_);
            closed_ = true;
        }
        workAvailable_.notify_all();
        // Under each shard's lock: a producer between its predicate
        // check and its wait cannot miss the wake-up.
        for (auto &shard : shards_) {
            std::lock_guard<std::mutex> lock(shard->mutex);
            shard->notFull.notify_all();
        }
    }

    bool isClosed() const
    {
        std::lock_guard<std::mutex> lock(signalMutex_);
        return closed_;
    }

    /** Items accepted but not yet popped (approximate while racing). */
    i64 pendingApprox() const
    {
        std::lock_guard<std::mutex> lock(signalMutex_);
        return pending_;
    }

  private:
    struct Shard
    {
        std::mutex mutex;
        std::condition_variable notFull;
        std::deque<T> items;
    };

    const std::size_t capacity_;
    std::vector<std::unique_ptr<Shard>> shards_;

    mutable std::mutex signalMutex_;
    std::condition_variable workAvailable_;
    i64 pending_ = 0;
    bool closed_ = false;
};

} // namespace cdpu::serve

#endif // CDPU_SERVE_QUEUE_H_
