/**
 * @file
 * Clang Thread Safety Analysis shim for the determinism & concurrency
 * contract.
 *
 * The engine's headline guarantee — reports byte-identical across
 * thread counts and shard layouts — rests on a small set of ownership
 * disciplines: mutex-guarded pool state, single-writer shard slots and
 * trace rings, setup-time-only intern tables. This header makes those
 * disciplines *types* the compiler checks:
 *
 *  - `APC_GUARDED_BY` / `APC_REQUIRES` / `APC_ACQUIRE` / `APC_RELEASE`
 *    map onto clang's capability attributes and vanish on other
 *    compilers (gcc builds are unaffected; the clang CI job builds with
 *    `-Wthread-safety -Werror`).
 *
 *  - `apc::sim::Mutex` + its scoped lock and condition variable wrap
 *    the std primitives with annotations, because libstdc++'s
 *    `std::mutex` is invisible to the analysis. Same codegen, checked
 *    capabilities.
 *
 *  - `apc::sim::Role` is a zero-size, zero-cost capability for
 *    ownership that is *not* a lock: "the one worker advancing this
 *    shard", "the single thread recording into this trace ring",
 *    "setup-time single-threaded code". Acquiring a Role compiles to
 *    nothing; its value is that fields marked `APC_GUARDED_BY(role)`
 *    cannot be touched by code that never states (and therefore never
 *    documents) its claim to the role. The cross-thread truth of those
 *    claims is enforced dynamically by the ThreadSanitizer CI job —
 *    static structure here, dynamic discipline there.
 *
 * Annotation guide for new shared state: give the owning class a
 * `Mutex` (real exclusion) or `Role` (phase/single-writer ownership),
 * mark the shared fields `APC_GUARDED_BY`, and either take a scoped
 * guard in each member function or propagate `APC_REQUIRES` to the
 * caller — prefer the latter whenever call sites are few, it pushes
 * the proof obligation to where the threading decision is made.
 */

#ifndef APC_SIM_ANNOTATIONS_H
#define APC_SIM_ANNOTATIONS_H

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#define APC_TSA(x) __attribute__((x))
#else
#define APC_TSA(x) // no-op: gcc/msvc ignore thread-safety attributes
#endif

#define APC_CAPABILITY(x) APC_TSA(capability(x))
#define APC_SCOPED_CAPABILITY APC_TSA(scoped_lockable)
#define APC_GUARDED_BY(x) APC_TSA(guarded_by(x))
#define APC_PT_GUARDED_BY(x) APC_TSA(pt_guarded_by(x))
#define APC_REQUIRES(...) APC_TSA(requires_capability(__VA_ARGS__))
#define APC_REQUIRES_SHARED(...) \
    APC_TSA(requires_shared_capability(__VA_ARGS__))
#define APC_ACQUIRE(...) APC_TSA(acquire_capability(__VA_ARGS__))
#define APC_ACQUIRE_SHARED(...) \
    APC_TSA(acquire_shared_capability(__VA_ARGS__))
#define APC_RELEASE(...) APC_TSA(release_capability(__VA_ARGS__))
#define APC_RELEASE_SHARED(...) \
    APC_TSA(release_shared_capability(__VA_ARGS__))
#define APC_EXCLUDES(...) APC_TSA(locks_excluded(__VA_ARGS__))
#define APC_RETURN_CAPABILITY(x) APC_TSA(lock_returned(x))
#define APC_NO_THREAD_SAFETY_ANALYSIS APC_TSA(no_thread_safety_analysis)

namespace apc::sim {

/** Annotated std::mutex. Lock with MutexLock; CondVar can wait on it. */
class APC_CAPABILITY("mutex") Mutex
{
  public:
    void lock() APC_ACQUIRE() { m_.lock(); }
    void unlock() APC_RELEASE() { m_.unlock(); }

  private:
    friend class MutexLock;
    std::mutex m_;
};

/** Scoped exclusive lock over Mutex (std::unique_lock underneath, so a
 *  CondVar wait can atomically release/reacquire it). */
class APC_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &m) APC_ACQUIRE(m) : lk_(m.m_) {}
    ~MutexLock() APC_RELEASE() = default;
    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    friend class CondVar;
    std::unique_lock<std::mutex> lk_;
};

/**
 * Condition variable bound to the annotated Mutex. Waits are expressed
 * as explicit `while (!cond) cv.wait(lk);` loops rather than the
 * predicate overload: the analysis cannot see capabilities inside a
 * predicate lambda, while an open-coded loop keeps every guarded read
 * in a scope that visibly holds the lock.
 */
class CondVar
{
  public:
    void wait(MutexLock &lk) { cv_.wait(lk.lk_); }
    void notify_one() { cv_.notify_one(); }
    void notify_all() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

/**
 * Zero-cost capability for non-lock ownership: single-writer rings,
 * one-worker-per-shard slots, setup-time-only tables. acquire/release
 * compile to nothing; the point is that `APC_GUARDED_BY(role)` fields
 * are only reachable from code that states its claim. The claim's
 * cross-thread truth is the TSan job's problem, not the type system's.
 */
class APC_CAPABILITY("role") Role
{
  public:
    void acquire() APC_ACQUIRE() {}
    void release() APC_RELEASE() {}
    void acquire_shared() APC_ACQUIRE_SHARED() {}
    void release_shared() APC_RELEASE_SHARED() {}
};

/** Scoped exclusive claim of a Role (writer side). */
class APC_SCOPED_CAPABILITY RoleGuard
{
  public:
    explicit RoleGuard(Role &r) APC_ACQUIRE(r) : r_(r) { r_.acquire(); }
    ~RoleGuard() APC_RELEASE() { r_.release(); }
    RoleGuard(const RoleGuard &) = delete;
    RoleGuard &operator=(const RoleGuard &) = delete;

  private:
    Role &r_;
};

/** Scoped shared claim of a Role (read-only side: merge, export). */
class APC_SCOPED_CAPABILITY SharedRoleGuard
{
  public:
    explicit SharedRoleGuard(const Role &r) APC_ACQUIRE_SHARED(r)
        : r_(const_cast<Role &>(r))
    {
        r_.acquire_shared();
    }
    ~SharedRoleGuard() APC_RELEASE_SHARED() { r_.release_shared(); }
    SharedRoleGuard(const SharedRoleGuard &) = delete;
    SharedRoleGuard &operator=(const SharedRoleGuard &) = delete;

  private:
    Role &r_;
};

} // namespace apc::sim

#endif // APC_SIM_ANNOTATIONS_H
