#include "net/registered_memory.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <mutex>
#include <new>

namespace spindle::net {

/// One anonymous mapping that regions are carved from, front to back.
/// `live` counts the regions carved from it that still exist.
struct RegisteredMemory::Slab {
  std::byte* base = nullptr;
  std::size_t size = 0;
  std::size_t used = 0;
  std::size_t live = 0;
};

namespace {

// Regions are carved from the open slab until one does not fit; that one
// opens a slab of max(kSlabBytes, its size). A 16-node view install (48
// regions of at most 68 KB) fits one slab.
constexpr std::size_t kSlabBytes = std::size_t{4} << 20;

std::size_t page_round(std::size_t n) {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return (n + page - 1) / page * page;
}

// Regions are made and destroyed on whichever thread builds or tears down
// a cluster, so the open slab is shared under a lock.
std::mutex g_mu;
RegisteredMemory::Slab* g_open = nullptr;

void unmap(RegisteredMemory::Slab* s) {
  ::munmap(s->base, s->size);
  delete s;
}

}  // namespace

RegisteredMemory::RegisteredMemory(std::size_t size) : size_(size) {
  if (size_ == 0) return;
  const std::size_t span = page_round(size_);
  std::lock_guard lock(g_mu);
  if (g_open == nullptr || g_open->size - g_open->used < span) {
    const std::size_t bytes = std::max(kSlabBytes, span);
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    // Advisory: a kernel without THP support rejects it, which is harmless.
    (void)::madvise(p, bytes, MADV_NOHUGEPAGE);
    if (g_open != nullptr && g_open->live == 0) unmap(g_open);
    g_open = new Slab{static_cast<std::byte*>(p), bytes};
  }
  slab_ = g_open;
  data_ = slab_->base + slab_->used;
  slab_->used += span;
  ++slab_->live;
}

RegisteredMemory::~RegisteredMemory() {
  if (data_ == nullptr) return;
  std::lock_guard lock(g_mu);
  if (--slab_->live == 0 && slab_ != g_open) {
    unmap(slab_);
    return;
  }
  // Drop the pages now: they read as zeros if touched again, and a dead
  // region commits nothing while its slab lives on. An emptied open slab
  // starts over from its front.
  (void)::madvise(data_, page_round(size_), MADV_DONTNEED);
  if (slab_->live == 0) slab_->used = 0;
}

}  // namespace spindle::net
