/**
 * @file
 * An allocator for the stores' large host-side buffers that maps big
 * blocks straight from the OS (DESIGN.md section 11).
 *
 * glibc's malloc serves a large block with mmap only until the first
 * such block is freed; it then raises its mmap threshold (up to
 * 32 MiB) and keeps later large blocks, once freed, cached in the
 * arena of whichever thread freed them. The stores' big buffers
 * (FlatMap chunks and index, the ledger's journal) grow and are freed
 * on engine worker threads, so through malloc how much of their freed
 * memory stays resident would depend on which thread ran which shard,
 * and a process's peak RSS would vary from run to run. A mapped block
 * is resident exactly while it is live.
 */

#ifndef BSSD_DB_PAGE_ALLOCATOR_HH
#define BSSD_DB_PAGE_ALLOCATOR_HH

#include <cstddef>
#include <memory>
#include <new>

#include <sys/mman.h>

namespace bssd::db
{

/**
 * A std allocator: blocks of at least kMinMappedBytes are mmap'd and
 * munmap'd on free; smaller ones come from std::allocator.
 */
template <class T>
struct PageAllocator
{
    using value_type = T;

    /** glibc's initial mmap threshold. */
    static constexpr std::size_t kMinMappedBytes = 128 * 1024;

    PageAllocator() = default;
    template <class U>
    PageAllocator(const PageAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (n * sizeof(T) < kMinMappedBytes)
            return std::allocator<T>{}.allocate(n);
        void *p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return static_cast<T *>(p);
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        if (n * sizeof(T) < kMinMappedBytes)
            std::allocator<T>{}.deallocate(p, n);
        else
            ::munmap(p, n * sizeof(T));
    }

    friend bool
    operator==(const PageAllocator &, const PageAllocator &)
    {
        return true;
    }
};

} // namespace bssd::db

#endif // BSSD_DB_PAGE_ALLOCATOR_HH
