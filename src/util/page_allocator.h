#pragma once
// Storage for the dense per-pair tables (topo::RssMap, the topology's
// linear-power matrix).
//
// Blocks of at least kMinBytes are mapped straight from the OS and unmapped
// when freed. Through malloc, glibc serves a block that size from the heap
// once one like it has been freed; a later small allocation that lands in
// the freed hole leaves it too short for the next table, so a process that
// builds topology after topology (a sweep) grows by a whole table whenever
// that happens. Mapped tables leave no hole. MAP_POPULATE faults the pages
// in with one call instead of one trap per page as the table is filled.
// Smaller blocks come from calloc.
//
// Either way a new block is already zero, so a zero table costs no
// user-space fill: the linear-power matrix relies on that for its
// no-path pairs (0 mW).

#include <sys/mman.h>

#include <algorithm>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>
#include <utility>

namespace dmn::util {

/// A fixed-size table of doubles on zeroed pages. Its size is set at
/// construction; there is no resize, so no value from an earlier, larger
/// table can reappear.
class DenseTable {
 public:
  static constexpr std::size_t kMinBytes = std::size_t{1} << 20;

  DenseTable() = default;
  /// `n` zeros, straight from the allocator.
  explicit DenseTable(std::size_t n) : data_(allocate(n)), size_(n) {}
  /// `n` copies of `value`.
  DenseTable(std::size_t n, double value) : DenseTable(n) {
    std::fill_n(data_, n, value);
  }
  DenseTable(const DenseTable& other) : DenseTable(other.size_) {
    if (size_ != 0) std::memcpy(data_, other.data_, size_ * sizeof(double));
  }
  DenseTable(DenseTable&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  DenseTable& operator=(DenseTable other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }
  ~DenseTable() { release(data_, size_); }

  const double* data() const { return data_; }
  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }

 private:
  double* data_ = nullptr;
  std::size_t size_ = 0;

  static double* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    if (n > static_cast<std::size_t>(-1) / sizeof(double)) {
      throw std::bad_alloc();
    }
    const std::size_t bytes = n * sizeof(double);
    void* p = bytes < kMinBytes
                  ? std::calloc(n, sizeof(double))
                  : mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (p == nullptr || p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<double*>(p);
  }

  static void release(double* p, std::size_t n) noexcept {
    if (p == nullptr) return;
    const std::size_t bytes = n * sizeof(double);
    if (bytes < kMinBytes) {
      std::free(p);
    } else {
      munmap(p, bytes);
    }
  }
};

}  // namespace dmn::util
