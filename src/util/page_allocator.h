#pragma once
// Allocator for the dense node x node tables (topo::RssMap, the topology's
// linear-power matrix).
//
// Blocks of at least kMinBytes are mapped straight from the OS and unmapped
// when freed. Through malloc, glibc serves a block that size from the heap
// once one like it has been freed; a later small allocation that lands in
// the freed hole leaves it too short for the next table, so a process that
// builds topology after topology (a sweep) grows by a whole table whenever
// that happens. Mapped tables leave no hole. MAP_POPULATE faults the pages
// in with one call instead of one trap per page as the table is filled.
// Smaller blocks use operator new.

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <vector>

namespace dmn::util {

template <typename T>
class PageAllocator {
 public:
  using value_type = T;

  static constexpr std::size_t kMinBytes = std::size_t{1} << 20;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n > static_cast<std::size_t>(-1) / sizeof(T)) throw std::bad_alloc();
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kMinBytes) return static_cast<T*>(::operator new(bytes));
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
    if (bytes < kMinBytes) {
      ::operator delete(p);
    } else {
      munmap(p, bytes);
    }
  }

  friend bool operator==(const PageAllocator&, const PageAllocator&) {
    return true;
  }
};

/// A dense table of doubles on PageAllocator.
using DenseTable = std::vector<double, PageAllocator<double>>;

}  // namespace dmn::util
