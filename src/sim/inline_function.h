/**
 * @file
 * Small-buffer type-erased callable for the simulation hot path.
 *
 * `InplaceFunction<R(Args...), Capacity>` is the simulator's one
 * callable type. The callable is stored inline when it fits in
 * `Capacity` bytes (the common case for event callbacks — a `this`
 * pointer plus a few captured scalars) and falls back to a single heap
 * allocation otherwise. There is no RTTI and no `target()`.
 *
 * Copies copy the callable, which must be copy-constructible (every
 * lambda capturing copyable state qualifies).
 * Invoking an empty function asserts in debug builds; in release
 * builds it is a no-op for void-returning signatures and undefined for
 * value-returning ones.
 */

#ifndef APC_SIM_INLINE_FUNCTION_H
#define APC_SIM_INLINE_FUNCTION_H

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace apc::sim {

template <typename Signature, std::size_t Capacity = 64>
class InplaceFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InplaceFunction<R(Args...), Capacity>
{
  public:
    InplaceFunction() = default;
    InplaceFunction(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InplaceFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InplaceFunction(F &&f)
    {
        construct(std::forward<F>(f));
    }

    /** Assign a fresh callable in place (no temporary + relocation). */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InplaceFunction> &&
                  std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InplaceFunction &
    operator=(F &&f)
    {
        reset();
        construct(std::forward<F>(f));
        return *this;
    }

    InplaceFunction(const InplaceFunction &other)
    {
        if (other.ops_) {
            other.ops_->copyTo(other.buf_, buf_);
            ops_ = other.ops_;
        }
    }

    InplaceFunction(InplaceFunction &&other) noexcept
    {
        moveFrom(other);
    }

    InplaceFunction &
    operator=(const InplaceFunction &other)
    {
        if (this != &other) {
            reset();
            if (other.ops_) {
                other.ops_->copyTo(other.buf_, buf_);
                ops_ = other.ops_;
            }
        }
        return *this;
    }

    InplaceFunction &
    operator=(InplaceFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InplaceFunction &
    operator=(std::nullptr_t)
    {
        reset();
        return *this;
    }

    ~InplaceFunction() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    /** True when a callable of type @p F is stored without a heap
     *  allocation. */
    template <typename F>
    static constexpr bool
    storesInline()
    {
        using Fn = std::decay_t<F>;
        return sizeof(Fn) <= Capacity &&
            alignof(Fn) <= alignof(std::max_align_t) &&
            std::is_nothrow_move_constructible_v<Fn>;
    }

    R
    operator()(Args... args) const
    {
        assert(ops_ && "invoking an empty InplaceFunction");
        if constexpr (std::is_void_v<R>) {
            if (!ops_)
                return;
        }
        return ops_->invoke(const_cast<unsigned char *>(buf_),
                            std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args...);
        void (*copyTo)(const void *src, void *dst);
        /** Move the callable from src to dst and destroy src. */
        void (*relocateTo)(void *src, void *dst) noexcept;
        void (*destroy)(void *) noexcept;
        /** Relocation is a plain byte copy (trivially-copyable inline
         *  callables, and the heap case where only a pointer moves). */
        bool trivialRelocate;
        /** Destruction is a no-op (no indirect call needed). */
        bool trivialDestroy;
    };

    void
    reset()
    {
        if (ops_) {
            if (!ops_->trivialDestroy)
                ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    template <typename F>
    void
    construct(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (storesInline<Fn>()) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            ops_ = &inlineOps<Fn>;
        } else {
            ::new (static_cast<void *>(buf_))
                void *(new Fn(std::forward<F>(f)));
            ops_ = &heapOps<Fn>;
        }
    }

    void
    moveFrom(InplaceFunction &other) noexcept
    {
        if (other.ops_) {
            // The hot path: event records and observer slots relocate
            // constantly; trivially-relocatable callables move as one
            // fixed-size copy instead of an indirect call.
            if (other.ops_->trivialRelocate)
                std::memcpy(buf_, other.buf_, Capacity);
            else
                other.ops_->relocateTo(other.buf_, buf_);
            ops_ = other.ops_;
            other.ops_ = nullptr;
        }
    }

    template <typename Fn>
    static inline const Ops inlineOps = {
        /* invoke */
        [](void *p, Args... args) -> R {
            return (*std::launder(reinterpret_cast<Fn *>(p)))(
                std::forward<Args>(args)...);
        },
        /* copyTo */
        [](const void *src, void *dst) {
            ::new (dst) Fn(*std::launder(
                reinterpret_cast<const Fn *>(src)));
        },
        /* relocateTo */
        [](void *src, void *dst) noexcept {
            Fn *f = std::launder(reinterpret_cast<Fn *>(src));
            ::new (dst) Fn(std::move(*f));
            f->~Fn();
        },
        /* destroy */
        [](void *p) noexcept {
            std::launder(reinterpret_cast<Fn *>(p))->~Fn();
        },
        /* trivialRelocate */ std::is_trivially_copyable_v<Fn>,
        /* trivialDestroy */ std::is_trivially_destructible_v<Fn>,
    };

    template <typename Fn>
    static inline const Ops heapOps = {
        /* invoke */
        [](void *p, Args... args) -> R {
            return (*static_cast<Fn *>(
                *std::launder(reinterpret_cast<void **>(p))))(
                std::forward<Args>(args)...);
        },
        /* copyTo */
        [](const void *src, void *dst) {
            const Fn *f = static_cast<const Fn *>(
                *std::launder(reinterpret_cast<void *const *>(src)));
            ::new (dst) void *(new Fn(*f));
        },
        /* relocateTo */
        [](void *src, void *dst) noexcept {
            ::new (dst)
                void *(*std::launder(reinterpret_cast<void **>(src)));
        },
        /* destroy */
        [](void *p) noexcept {
            delete static_cast<Fn *>(
                *std::launder(reinterpret_cast<void **>(p)));
        },
        /* trivialRelocate */ true, // ownership moves with the pointer
        /* trivialDestroy */ false,
    };

    static_assert(Capacity >= sizeof(void *),
                  "capacity must at least hold the heap-fallback pointer");

    const Ops *ops_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[Capacity];
};

} // namespace apc::sim

#endif // APC_SIM_INLINE_FUNCTION_H
