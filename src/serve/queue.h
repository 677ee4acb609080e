/**
 * @file
 * Bounded MPMC FIFO work queue.
 *
 * The paper's software-trend analysis (Section 3.3) shows serving
 * throughput is won by keeping many independent calls in flight, not
 * by accelerating one call: a few producers (the replay feeder, cdpud's
 * connection readers, the container block feeder) and a few workers
 * share one queue. At that scale one deque under one mutex is the
 * whole design: a push and a pop each take the lock once, and items
 * leave in the order they arrived, whichever producer brought them.
 *
 * Concurrency design:
 *  - One mutex guards the deque and the closed flag; consumers sleep
 *    on notEmpty, producers facing a full queue on notFull.
 *  - A producer waits for room until a time point it chooses (push's
 *    @p until). That one primitive is every admission decision:
 *    kNoDeadline is lossless backpressure, "now" is load shedding, a
 *    request's deadline is a bounded wait. No caller polls.
 *  - close() wakes everyone. push() checks the closed flag under the
 *    lock, so nothing enters a closed queue; pop() returns false only
 *    when closed and drained, so no accepted item is ever lost on
 *    shutdown.
 */

#ifndef CDPU_SERVE_QUEUE_H_
#define CDPU_SERVE_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>

#include "common/types.h"

namespace cdpu::serve
{

using QueueClock = std::chrono::steady_clock;

/** A push deadline that never expires: wait for room or for close(). */
inline constexpr QueueClock::time_point kNoDeadline =
    QueueClock::time_point::max();

template <typename T> class WorkQueue
{
  public:
    /** @param capacity Items the queue holds before a push waits
     *  (clamped >= 1). */
    explicit WorkQueue(std::size_t capacity)
        : capacity_(capacity > 0 ? capacity : 1)
    {
    }

    /**
     * Enqueues @p item, waiting for room until @p until: kNoDeadline
     * waits as long as it takes, a time point at or before now does
     * not wait at all. Returns true once the item is in, and only then
     * moves from @p item; a full queue at @p until or a closed queue
     * returns false with @p item intact.
     */
    bool push(T &item, QueueClock::time_point until)
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            const auto ready = [&] {
                return items_.size() < capacity_ || closed_;
            };
            // wait_until(max()) can overflow converting to the
            // condvar's clock, so "never give up" takes plain wait().
            if (until == kNoDeadline)
                notFull_.wait(lock, ready);
            else if (!notFull_.wait_until(lock, until, ready))
                return false;
            if (closed_)
                return false;
            items_.push_back(std::move(item));
        }
        notEmpty_.notify_one();
        return true;
    }

    /** Dequeues the oldest item into @p item. Blocks while the queue
     *  is open but empty. Returns false only when closed and fully
     *  drained. */
    bool pop(T &item)
    {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            notEmpty_.wait(lock,
                           [&] { return !items_.empty() || closed_; });
            if (items_.empty())
                return false;
            item = std::move(items_.front());
            items_.pop_front();
        }
        notFull_.notify_one();
        return true;
    }

    /** Rejects every later push, wakes the waiting ones (they return
     *  false) and lets consumers drain what was accepted. */
    void close()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        notEmpty_.notify_all();
        notFull_.notify_all();
    }

    bool isClosed() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

    /** Items accepted but not yet popped. */
    std::size_t size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return items_.size();
    }

  private:
    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable notEmpty_;
    std::condition_variable notFull_;
    std::deque<T> items_;
    bool closed_ = false;
};

} // namespace cdpu::serve

#endif // CDPU_SERVE_QUEUE_H_
