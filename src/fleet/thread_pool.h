/**
 * @file
 * Barrier-style thread pool for the fleet epoch loop.
 *
 * The fleet advances N independent per-server event queues in lockstep
 * epochs; within one epoch the servers share no state, so each can run
 * on its own worker. The pool keeps its workers alive across epochs
 * (thousands of epochs per run — spawning threads each time would
 * dominate) and exposes one operation: `parallelFor(n, fn)`, which runs
 * fn(0..n-1) across the workers and returns when all indices finished.
 *
 * Dispatch is chunked, not per-index: [0, n) is cut into a fixed set of
 * contiguous ranges (a few per participant) and whole ranges are
 * claimed with one atomic each. Claiming a range instead of an index
 * keeps the per-epoch synchronization cost independent of the server
 * count — at 10k servers the old per-index fetch_add was 10k atomics
 * per epoch — while still letting a fast thread absorb a straggler's
 * unclaimed ranges. The callable is passed by type-erased reference
 * (no per-call callable allocation), and batches with a single
 * range run inline on the caller without waking any worker.
 *
 * With `threads == 1` the pool runs everything inline on the caller —
 * the mode unit tests use, and the sensible default on small hosts.
 */

#ifndef APC_FLEET_THREAD_POOL_H
#define APC_FLEET_THREAD_POOL_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "sim/annotations.h"

namespace apc::fleet {

/** Persistent fork-join worker pool. */
class ThreadPool
{
  public:
    /** @param threads worker count; <= 1 means inline execution. */
    explicit ThreadPool(unsigned threads)
    {
        if (threads <= 1)
            return;
        for (unsigned i = 0; i < threads; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ~ThreadPool()
    {
        if (workers_.empty())
            return;
        {
            sim::MutexLock lk(m_);
            stop_ = true;
        }
        cv_.notify_all();
        for (auto &w : workers_)
            w.join();
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Run fn(i) for i in [0, n); blocks until every index completed.
     * fn for different indices may run concurrently — indices must not
     * share mutable state. The caller thread works too. The callable is
     * borrowed by reference for the duration of the call (no copy, no
     * allocation).
     */
    template <typename F>
    void
    parallelFor(std::size_t n, F &&fn)
    {
        auto range = [&fn](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i)
                fn(i);
        };
        runRanges(n, RangeFnRef(range));
    }

    /**
     * Range flavor: fn(begin, end) once per claimed contiguous chunk.
     * Useful when per-chunk setup (scratch buffers, locality) matters.
     */
    template <typename F>
    void
    parallelForRanges(std::size_t n, F &&fn)
    {
        runRanges(n, RangeFnRef(fn));
    }

    /** Worker count (0 = inline mode). */
    std::size_t size() const { return workers_.size(); }

  private:
    /** Non-owning type-erased `void(begin, end)` callable reference.
     *  Safe here because runRanges() never outlives its caller. */
    class RangeFnRef
    {
      public:
        template <typename F,
                  typename = std::enable_if_t<
                      !std::is_same_v<std::decay_t<F>, RangeFnRef>>>
        explicit RangeFnRef(F &fn)
            : ctx_(&fn), call_([](void *ctx, std::size_t b, std::size_t e) {
                  (*static_cast<F *>(ctx))(b, e);
              })
        {
        }

        void
        operator()(std::size_t b, std::size_t e) const
        {
            call_(ctx_, b, e);
        }

      private:
        void *ctx_;
        void (*call_)(void *, std::size_t, std::size_t);
    };

    struct Batch
    {
        const RangeFnRef *fn = nullptr;
        std::size_t total = 0;     ///< index count
        std::size_t numChunks = 0; ///< fixed contiguous ranges over total
        std::atomic<std::size_t> nextChunk{0};
        std::atomic<std::size_t> remaining{0}; ///< unfinished chunks
    };

    void
    runRanges(std::size_t n, const RangeFnRef &fn)
    {
        if (n == 0)
            return;
        // Tiny batches skip the rendezvous entirely: waking the pool
        // for one range costs more than the range.
        if (workers_.empty() || n <= 1) {
            fn(0, n);
            return;
        }
        // A few chunks per participant: static boundaries (chunk c is
        // always [c*n/k, (c+1)*n/k)), dynamic claiming for balance.
        const std::size_t parties = workers_.size() + 1;
        const std::size_t chunks = std::min(n, parties * 4);
        // Batch state lives in a shared_ptr: a straggling worker that
        // re-checks for work after the batch finished only touches its
        // own (still-alive) batch, never the next one's counters or a
        // dangling fn.
        auto batch = std::make_shared<Batch>();
        batch->fn = &fn;
        batch->total = n;
        batch->numChunks = chunks;
        batch->remaining.store(chunks, std::memory_order_relaxed);
        {
            sim::MutexLock lk(m_);
            current_ = batch;
            ++generation_;
        }
        cv_.notify_all();
        runBatch(*batch);
        sim::MutexLock lk(m_);
        while (batch->remaining.load(std::memory_order_acquire) != 0)
            doneCv_.wait(lk);
    }

    /** Claim whole chunks until the batch is exhausted. */
    void
    runBatch(Batch &b)
    {
        for (;;) {
            const std::size_t c =
                b.nextChunk.fetch_add(1, std::memory_order_relaxed);
            if (c >= b.numChunks)
                break;
            const std::size_t begin = c * b.total / b.numChunks;
            const std::size_t end = (c + 1) * b.total / b.numChunks;
            if (begin < end)
                (*b.fn)(begin, end);
            if (b.remaining.fetch_sub(1, std::memory_order_acq_rel)
                    == 1) {
                sim::MutexLock lk(m_);
                doneCv_.notify_all();
            }
        }
    }

    void
    workerLoop()
    {
        std::uint64_t seen = 0;
        for (;;) {
            std::shared_ptr<Batch> batch;
            {
                // Open-coded wait loop (not the predicate overload) so
                // the thread-safety analysis sees every guarded read
                // happen while m_ is visibly held.
                sim::MutexLock lk(m_);
                while (!stop_ && generation_ == seen)
                    cv_.wait(lk);
                if (stop_)
                    return;
                seen = generation_;
                batch = current_;
            }
            if (batch)
                runBatch(*batch);
        }
    }

    std::vector<std::thread> workers_;
    sim::Mutex m_;
    sim::CondVar cv_;
    sim::CondVar doneCv_;
    /** Latest published batch; workers snapshot it under m_. */
    std::shared_ptr<Batch> current_ APC_GUARDED_BY(m_);
    /** Bumped per publish; wakes workers whose `seen` lags. */
    std::uint64_t generation_ APC_GUARDED_BY(m_) = 0;
    bool stop_ APC_GUARDED_BY(m_) = false;
};

} // namespace apc::fleet

#endif // APC_FLEET_THREAD_POOL_H
