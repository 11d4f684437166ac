#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

#include "metrics/metrics.hpp"

namespace spindle::test {

/// FNV-1a digest accumulator shared by the golden-digest tests.
/// Order-sensitive on purpose: the delivery *sequence* is part of the
/// contract, not just the delivered set. Every checked-in golden was
/// recorded with this offset basis.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void mix_histogram(const metrics::Histogram& hist) {
    mix(hist.count());
    mix(hist.min());
    mix(hist.max());
    for (const auto& b : hist.buckets()) {
      mix(b.low);
      mix(b.count);
    }
  }
  void mix_counters(const metrics::ProtocolCounters& c) {
    mix(c.rdma_writes_posted);
    mix(c.rdma_bytes_posted);
    mix(static_cast<std::uint64_t>(c.post_cpu));
    mix(static_cast<std::uint64_t>(c.sender_wait));
    mix(static_cast<std::uint64_t>(c.lock_wait));
    mix(c.nulls_sent);
    mix(c.null_iterations);
    mix(c.messages_sent);
    mix(c.messages_delivered);
    mix(c.bytes_delivered);
    mix(static_cast<std::uint64_t>(c.predicate_cpu));
    mix_histogram(c.send_batches);
    mix_histogram(c.receive_batches);
    mix_histogram(c.delivery_batches);
    mix_histogram(c.delivery_latency_ns);
  }
  /// Mixes each value in order: histograms by mix_histogram, floating
  /// point by bit pattern, integers as 64-bit words.
  template <typename... T>
  std::uint64_t mix_all(const T&... v) {
    const auto one = [this](const auto& x) {
      using X = std::decay_t<decltype(x)>;
      if constexpr (std::is_same_v<X, metrics::Histogram>) {
        mix_histogram(x);
      } else if constexpr (std::is_floating_point_v<X>) {
        mix(std::bit_cast<std::uint64_t>(x));
      } else {
        mix(static_cast<std::uint64_t>(x));
      }
    };
    (one(v), ...);
    return h;
  }
};

/// The tag a sender wrote into a payload's first 8 bytes (0 if shorter).
inline std::uint64_t tag_of(std::span<const std::byte> data) {
  std::uint64_t t = 0;
  if (data.size() >= sizeof t) std::memcpy(&t, data.data(), sizeof t);
  return t;
}

}  // namespace spindle::test
