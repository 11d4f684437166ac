#pragma once

#include <cstddef>
#include <span>

namespace spindle::net {

/// Backing store of a registered region (SMC rings, SST tables).
///
/// Anonymous private memory: it reads as zeros, and the kernel commits a
/// page only when it is first touched, so resident memory follows the
/// bytes that writes actually land rather than the senders × window × slot
/// the layout reserves (§4.1.2). Regions are carved page-aligned from
/// shared slabs, so a view install of many small rings and tables costs
/// one mapping, not one per region. Slabs decline huge pages
/// (MADV_NOHUGEPAGE) so that one first touch commits one base page,
/// whatever the host's transparent-huge-page mode. A destroyed region
/// hands its pages back at once; its slab is reused once empty. Neither
/// copied nor moved, since the fabric holds its address.
class RegisteredMemory {
 public:
  /// `size` zero bytes (none for size 0). Throws std::bad_alloc when a
  /// new slab cannot be mapped.
  explicit RegisteredMemory(std::size_t size);
  ~RegisteredMemory();

  RegisteredMemory(const RegisteredMemory&) = delete;
  RegisteredMemory& operator=(const RegisteredMemory&) = delete;

  std::byte* data() noexcept { return data_; }
  const std::byte* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  std::span<std::byte> span() noexcept { return {data_, size_}; }

  struct Slab;

 private:
  std::byte* data_ = nullptr;
  std::size_t size_;
  Slab* slab_ = nullptr;
};

}  // namespace spindle::net
