// Avionics DDS example (the paper's motivating scenario, §1/§4.6): an
// onboard data space with three topics at different QoS levels —
//   * "imu"      : high-rate inertial samples, unordered QoS (latest wins)
//   * "flightcmd": flight-management commands, atomic multicast QoS
//                  (every node must apply the identical command sequence)
//   * "blackbox" : logged storage QoS (persisted to simulated SSD)
// Publishers construct samples in place and the subscribers' listeners run
// on the delivery path.

#include <cstdio>
#include <cstring>

#include "dds/client_mux.hpp"
#include "dds/dds.hpp"
#include "dds/marshal.hpp"
#include "dds/session.hpp"

using namespace spindle;

namespace {

struct ImuSample {
  double roll, pitch, yaw;
  std::uint64_t t;
};

sim::Co<> imu_publisher(dds::Domain* domain) {
  auto writer = domain->writer(0, 1);
  for (std::uint64_t i = 0; i < 200; ++i) {
    co_await writer.publish(sizeof(ImuSample), [i](std::span<std::byte> buf) {
      ImuSample s{0.1 * i, -0.05 * i, 0.01 * i, i};
      std::memcpy(buf.data(), &s, sizeof s);
    });
    co_await domain->engine().sleep(sim::micros(5));  // 200 kHz-ish burst
  }
}

sim::Co<> command_publisher(dds::Domain* domain) {
  auto writer = domain->writer(1, 2);
  const char* commands[] = {"SET_ALT 9000", "SET_HDG 270", "FLAPS 2",
                            "SET_ALT 11000", "AUTOPILOT ON"};
  for (const char* cmd : commands) {
    // Commands use the marshaller (string payloads, §3.1's "full
    // generality" path).
    dds::Encoder enc;
    enc.put_string(cmd);
    co_await writer.publish_bytes(enc.bytes());
    co_await domain->engine().sleep(sim::micros(50));
  }
}

sim::Co<> blackbox_publisher(dds::Domain* domain) {
  auto writer = domain->writer(0, 3);
  for (std::uint64_t i = 0; i < 50; ++i) {
    co_await writer.publish(1024, [i](std::span<std::byte> buf) {
      std::memcpy(buf.data(), &i, sizeof i);
    });
  }
}

}  // namespace

int main() {
  core::ClusterConfig cc;
  cc.nodes = 5;  // flight computer (0), FMS (1), displays (2, 3),
                 // ground-station uplink (4, external client)
  dds::Domain domain(cc);

  dds::TopicConfig imu;
  imu.name = "imu";
  imu.topic_id = 1;
  imu.qos = dds::Qos::unordered;
  imu.max_sample_size = sizeof(ImuSample);
  imu.publishers = {0};
  imu.subscribers = {1, 2, 3};
  domain.create_topic(imu);

  dds::TopicConfig cmd;
  cmd.name = "flightcmd";
  cmd.topic_id = 2;
  cmd.qos = dds::Qos::atomic_multicast;
  cmd.max_sample_size = 256;
  cmd.publishers = {1};
  cmd.subscribers = {0, 1, 2, 3};
  domain.create_topic(cmd);

  // A ground station connects as an external client session (§4.6) over a
  // TCP-class link, relayed through the FMS: its commands are totally
  // ordered with onboard ones, and it hears every command back.
  dds::MuxConfig uplink;
  uplink.per_message_overhead = sim::micros(12);
  dds::ClientMux& mux = domain.create_client_mux(2, 4, 1, uplink);
  dds::Session* ground = mux.connect(dds::SessionLink{sim::micros(12)});

  dds::TopicConfig box;
  box.name = "blackbox";
  box.topic_id = 3;
  box.qos = dds::Qos::logged_storage;
  box.max_sample_size = 1024;
  box.publishers = {0};
  box.subscribers = {3};
  domain.create_topic(box);

  domain.start();

  std::uint64_t imu_samples = 0;
  domain.reader(2, 1).set_listener([&](const dds::Sample&) { ++imu_samples; });
  domain.reader(0, 2).set_listener([](const dds::Sample& s) {
    dds::Decoder dec(s.data);
    std::printf("  [flight computer] command #%lld: %s\n",
                static_cast<long long>(s.sequence), dec.get_string().c_str());
  });

  std::uint64_t ground_heard = 0;
  dds::Subscription ground_sub =
      ground->subscribe([&](const dds::Sample&) { ++ground_heard; });

  domain.engine().spawn(imu_publisher(&domain));
  domain.engine().spawn(command_publisher(&domain));
  domain.engine().spawn(blackbox_publisher(&domain));
  domain.engine().spawn([](dds::Session* gs) -> sim::Co<> {
    // Request/reply RPC: the divert command round-trips through the total
    // order and the reply reports its sequence slot.
    dds::Encoder enc;
    enc.put_string("GROUND: DIVERT KSFO");
    const dds::Reply r = co_await gs->request(enc.bytes());
    std::printf("  [ground station] divert %s as command #%lld (rtt %.0f "
                "us)\n",
                dds::to_string(r.status),
                static_cast<long long>(r.seq),
                static_cast<double>(r.rtt) / 1e3);
  }(ground));

  domain.cluster().run_until(
      [&] {
        return domain.total_samples(1) >= 600 &&
               domain.total_samples(2) >= 24 &&
               domain.total_samples(3) >= 50 && ground_heard >= 6;
      },
      sim::seconds(5));

  std::printf("\nimu samples at display 2 : %llu\n",
              static_cast<unsigned long long>(imu_samples));
  std::printf("ground station heard     : %llu commands\n",
              static_cast<unsigned long long>(ground_heard));
  std::printf("blackbox bytes on SSD    : %llu\n",
              static_cast<unsigned long long>(
                  domain.reader(3, 3).logged_bytes()));
  std::printf("virtual flight time      : %.2f ms\n",
              sim::to_seconds(domain.cluster().now()) * 1e3);
  return 0;
}
