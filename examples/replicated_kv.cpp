// Replicated key-value store: classic state machine replication over the
// atomic multicast (the paper notes Derecho's multicast is equivalent to
// Vertical Paxos — every replica applies every update in the same order).
// Writes are multicast; reads are served from any replica's local state,
// and all replicas end bit-identical.

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "core/group.hpp"
#include "dds/marshal.hpp"

using namespace spindle;

namespace {

struct KvStore {
  std::map<std::string, std::string> data;
  std::uint64_t version = 0;

  void apply(std::span<const std::byte> op) {
    dds::Decoder dec(op);
    const std::string key = dec.get_string();
    const std::string value = dec.get_string();
    if (value.empty()) {
      data.erase(key);
    } else {
      data[key] = value;
    }
    ++version;
  }

  std::uint64_t fingerprint() const {
    std::uint64_t h = 1469598103934665603ull;
    for (const auto& [k, v] : data) {
      for (char c : k + '=' + v) {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
      }
    }
    return h;
  }
};

sim::Co<> writer(core::Cluster* cluster, net::NodeId id, core::SubgroupId sg,
                 int ops) {
  for (int i = 0; i < ops; ++i) {
    dds::Encoder enc;
    enc.put_string("key-" + std::to_string((id * 7 + i) % 20));
    enc.put_string("value-" + std::to_string(id) + "-" + std::to_string(i));
    const auto& bytes = enc.bytes();
    co_await cluster->node(id).send(
        sg, static_cast<std::uint32_t>(bytes.size()),
        [&bytes](std::span<std::byte> buf) {
          std::memcpy(buf.data(), bytes.data(), bytes.size());
        });
  }
}

}  // namespace

int main() {
  constexpr int kReplicas = 5;
  constexpr int kOpsPerWriter = 60;

  core::ClusterConfig cc;
  cc.nodes = kReplicas;
  core::Cluster cluster(cc);

  core::SubgroupConfig sc;
  sc.name = "kv";
  sc.members = {0, 1, 2, 3, 4};
  sc.senders = {0, 1, 2, 3, 4};
  sc.opts = core::ProtocolOptions::spindle();
  sc.opts.max_msg_size = 512;
  const core::SubgroupId sg = cluster.create_subgroup(sc);
  cluster.start();

  KvStore stores[kReplicas];
  for (net::NodeId n = 0; n < kReplicas; ++n) {
    cluster.node(n).set_delivery_handler(
        sg, [&stores, n](const core::Delivery& d) {
          stores[n].apply(d.data);
        });
  }

  for (net::NodeId n = 0; n < kReplicas; ++n) {
    cluster.engine().spawn(writer(&cluster, n, sg, kOpsPerWriter));
  }

  cluster.run_until(
      [&] {
        return cluster.total_delivered(sg) >=
               static_cast<std::uint64_t>(kReplicas) * kReplicas *
                   kOpsPerWriter;
      },
      sim::seconds(5));

  std::printf("applied %llu ops per replica in %.2f ms virtual time\n",
              static_cast<unsigned long long>(stores[0].version),
              sim::to_seconds(cluster.now()) * 1e3);
  bool identical = true;
  for (int r = 1; r < kReplicas; ++r) {
    identical = identical && stores[r].fingerprint() == stores[0].fingerprint();
  }
  std::printf("replica fingerprints identical: %s (0x%llx)\n",
              identical ? "yes" : "NO — BUG",
              static_cast<unsigned long long>(stores[0].fingerprint()));
  std::printf("a read at replica 3: key-5 = %s\n",
              stores[3].data.count("key-5") ? stores[3].data["key-5"].c_str()
                                            : "(absent)");
  cluster.shutdown();
  return identical ? 0 : 1;
}
