// Quickstart: a 4-node atomic multicast subgroup with the full Spindle
// optimization stack. Every node sends 100 messages; every node delivers
// all 400 in the identical total order.

#include <cstdio>
#include <cstring>

#include "core/group.hpp"

int main() {
  using namespace spindle;

  core::ClusterConfig cfg;
  cfg.nodes = 4;
  core::Cluster cluster(cfg);

  core::SubgroupConfig sg;
  sg.name = "quickstart";
  sg.members = {0, 1, 2, 3};
  sg.senders = {0, 1, 2, 3};
  sg.opts = core::ProtocolOptions::spindle();  // all optimizations on
  const core::SubgroupId id = cluster.create_subgroup(sg);

  cluster.start();

  // Delivery handlers run on each node's predicate thread, in the same
  // order everywhere.
  std::uint64_t delivered[4] = {};
  for (net::NodeId n = 0; n < 4; ++n) {
    cluster.node(n).set_delivery_handler(id, [&, n](const core::Delivery& d) {
      ++delivered[n];
      if (n == 0 && d.seq < 8) {  // print the head of the order at node 0
        std::uint64_t tag = 0;
        std::memcpy(&tag, d.data.data(), sizeof tag);
        std::printf("node0 delivered seq=%lld from sender %zu tag=%llu\n",
                    static_cast<long long>(d.seq), d.sender,
                    static_cast<unsigned long long>(tag));
      }
    });
  }

  // Each node streams 100 messages, constructed in place (zero copy).
  for (net::NodeId n = 0; n < 4; ++n) {
    cluster.engine().spawn(
        [](core::Cluster* c, net::NodeId node, core::SubgroupId g)
            -> sim::Co<> {
          for (std::uint64_t i = 0; i < 100; ++i) {
            co_await c->node(node).send(
                g, 1024, [node, i](std::span<std::byte> buf) {
                  const std::uint64_t tag = node * 1000 + i;
                  std::memcpy(buf.data(), &tag, sizeof tag);
                });
          }
        }(&cluster, n, id));
  }

  cluster.run_until(
      [&] { return cluster.total_delivered(id) >= 4 * 4 * 100; },
      sim::seconds(10));

  std::printf("\ndelivered per node:");
  for (auto d : delivered) std::printf(" %llu", (unsigned long long)d);
  std::printf("\nvirtual time: %.1f us\n", sim::to_micros(cluster.now()));
  cluster.shutdown();
  return 0;
}
