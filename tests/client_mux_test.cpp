// Front-tier ClientMux/Session tests: request/reply RPC through the total
// order, admission control (credit pool, watermark sheds), deterministic
// teardown (drain, cancel, relay crash), and the config validation paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "dds/client_mux.hpp"
#include "dds/dds.hpp"
#include "dds/session.hpp"

namespace spindle::dds {
namespace {

std::vector<std::byte> bytes_of(std::uint64_t tag, std::size_t n = 64) {
  std::vector<std::byte> b(n);
  std::memcpy(b.data(), &tag, sizeof tag);
  return b;
}
std::uint64_t tag_of(std::span<const std::byte> d) {
  std::uint64_t t = 0;
  std::memcpy(&t, d.data(), sizeof t);
  return t;
}

struct MuxFixture : ::testing::Test {
  // Nodes 0..3: topic members (all publish + subscribe; node 0 relays);
  // node 4: the gateway aggregating the client sessions.
  std::unique_ptr<Domain> domain;
  ClientMux* mux = nullptr;

  void make(MuxConfig mc = {}, std::size_t nodes = 5) {
    core::ClusterConfig cc;
    cc.nodes = nodes;
    domain = std::make_unique<Domain>(cc);
    TopicConfig tc;
    tc.name = "rpc";
    tc.topic_id = 1;
    tc.max_sample_size = 512;
    tc.publishers = {0, 1, 2, 3};
    tc.subscribers = {0, 1, 2, 3};
    domain->create_topic(tc);
    mux = &domain->create_client_mux(1, 4, 0, std::move(mc));
    domain->start();
  }

  bool run_until(const std::function<bool()>& cond,
                 sim::Nanos max = sim::seconds(10)) {
    return domain->engine().run_until(cond, max);
  }
};

TEST_F(MuxFixture, RequestReplyEchoRoundTrip) {
  make();
  Session* s = mux->connect();
  ASSERT_NE(s, nullptr);

  Reply reply;
  bool done = false;
  domain->engine().spawn([](Session* sess, Reply* out,
                            bool* flag) -> sim::Co<> {
    *out = co_await sess->request(bytes_of(42));
    *flag = true;
  }(s, &reply, &done));

  ASSERT_TRUE(run_until([&] { return done; }));
  EXPECT_EQ(reply.status, ReplyStatus::ok);
  EXPECT_EQ(reply.data.size(), 64u);
  EXPECT_EQ(tag_of(reply.data), 42u);
  EXPECT_GE(reply.seq, 0);
  EXPECT_GT(reply.rtt, 0);
  EXPECT_EQ(s->requests_sent(), 1u);
  EXPECT_EQ(s->replies_ok(), 1u);
  EXPECT_EQ(s->in_flight(), 0u);

  const auto stats = domain->cluster().stats();
  const metrics::RelayTierStats* tier = stats.relay(0);
  ASSERT_NE(tier, nullptr);
  EXPECT_EQ(tier->replies_completed, 1u);
  EXPECT_EQ(tier->requests_admitted, 1u);
  EXPECT_EQ(tier->sessions_live, 1u);
}

TEST_F(MuxFixture, ConcurrentSessionsGetDistinctTotalOrderPositions) {
  make();
  constexpr std::size_t kSessions = 8, kPerSession = 5;
  std::vector<Session*> sessions;
  for (std::size_t i = 0; i < kSessions; ++i) {
    sessions.push_back(mux->connect());
  }
  std::vector<Reply> replies;
  std::size_t done = 0;
  for (std::size_t i = 0; i < kSessions; ++i) {
    domain->engine().spawn([](Session* sess, std::uint64_t base,
                              std::vector<Reply>* out,
                              std::size_t* counter) -> sim::Co<> {
      for (std::uint64_t r = 0; r < kPerSession; ++r) {
        out->push_back(co_await sess->request(bytes_of(base + r)));
      }
      ++*counter;
    }(sessions[i], 100 * i, &replies, &done));
  }
  ASSERT_TRUE(run_until([&] { return done == kSessions; }));

  // Every request occupies its own slot in the one total order; replies
  // carry the slot back to the issuing session.
  std::set<std::int64_t> seqs;
  for (const Reply& r : replies) {
    ASSERT_EQ(r.status, ReplyStatus::ok);
    seqs.insert(r.seq);
  }
  EXPECT_EQ(seqs.size(), kSessions * kPerSession);
  // The relayed requests are real subgroup traffic: every member delivered
  // each of them.
  EXPECT_EQ(domain->total_samples(1), 4 * kSessions * kPerSession);
}

TEST_F(MuxFixture, SubscriptionFanoutAndRaiiCancel) {
  make();
  Session* a = mux->connect();
  Session* b = mux->connect();
  std::vector<std::uint64_t> at_a, at_b;
  Subscription sub_a = a->subscribe(
      [&](const Sample& smp) { at_a.push_back(tag_of(smp.data)); });
  {
    Subscription sub_b = b->subscribe(
        [&](const Sample& smp) { at_b.push_back(tag_of(smp.data)); });

    domain->engine().spawn([](Domain* d) -> sim::Co<> {
      auto w = d->writer(1, 1);
      for (std::uint64_t i = 0; i < 10; ++i) {
        co_await w.publish_bytes(bytes_of(700 + i));
      }
    }(domain.get()));
    ASSERT_TRUE(run_until([&] { return at_b.size() >= 10; }));
  }  // sub_b leaves scope: RAII unsubscribe

  domain->engine().spawn([](Domain* d) -> sim::Co<> {
    co_await d->writer(1, 1).publish_bytes(bytes_of(999));
  }(domain.get()));
  ASSERT_TRUE(run_until([&] { return at_a.size() >= 11; }));
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(at_a[i], 700 + i);
    EXPECT_EQ(at_b[i], 700 + i);
  }
  EXPECT_EQ(at_a.back(), 999u);
  EXPECT_EQ(at_b.size(), 10u);  // nothing after the subscription died
  EXPECT_EQ(a->samples_received(), 11u);
}

TEST_F(MuxFixture, MultiTopicSessionRoutesByTopicAndKey) {
  // One mux serving two topics over the same link, ring pair, and credit
  // pool. Explicit-topic requests land on the named topic; keyed requests
  // hash over the topic list; per-topic subscriptions only see their own
  // topic's samples.
  core::ClusterConfig cc;
  cc.nodes = 5;
  domain = std::make_unique<Domain>(cc);
  for (std::uint8_t id : {std::uint8_t{1}, std::uint8_t{2}}) {
    TopicConfig tc;
    tc.name = id == 1 ? "rpc" : "rpc2";
    tc.topic_id = id;
    tc.max_sample_size = 512;
    tc.publishers = {0, 1, 2, 3};
    tc.subscribers = {0, 1, 2, 3};
    domain->create_topic(tc);
  }
  mux = &domain->create_client_mux(1, 4, 0, {});
  mux->add_topic(2);
  domain->start();
  ASSERT_TRUE(mux->serves(2));
  ASSERT_EQ(mux->topics().size(), 2u);

  Session* s = mux->connect();
  ASSERT_NE(s, nullptr);
  std::vector<std::uint64_t> on_t1, on_t2;
  Subscription sub1 = s->subscribe(
      1, [&](const Sample& smp) { on_t1.push_back(tag_of(smp.data)); });
  Subscription sub2 = s->subscribe(
      2, [&](const Sample& smp) { on_t2.push_back(tag_of(smp.data)); });

  Reply r1, r2, rk;
  bool done = false;
  domain->engine().spawn([](Session* sess, Reply* a, Reply* b, Reply* k,
                            bool* flag) -> sim::Co<> {
    *a = co_await sess->request(1, bytes_of(10));
    *b = co_await sess->request(2, bytes_of(20));
    *k = co_await sess->request_keyed(0xfeedull, bytes_of(30));
    *flag = true;
  }(s, &r1, &r2, &rk, &done));
  ASSERT_TRUE(run_until([&] { return done; }));

  EXPECT_EQ(r1.status, ReplyStatus::ok);
  EXPECT_EQ(r2.status, ReplyStatus::ok);
  EXPECT_EQ(rk.status, ReplyStatus::ok);
  EXPECT_EQ(tag_of(r1.data), 10u);
  EXPECT_EQ(tag_of(r2.data), 20u);
  EXPECT_EQ(tag_of(rk.data), 30u);
  // The explicit requests are real per-topic subgroup traffic.
  EXPECT_EQ(domain->total_samples(1) + domain->total_samples(2), 4u * 3u);
  const std::uint8_t keyed_topic = mux->topic_for_key(0xfeedull);
  EXPECT_TRUE(keyed_topic == 1 || keyed_topic == 2);
  EXPECT_EQ(domain->total_samples(keyed_topic), 8u);

  // Member-side publishes fan back per topic, isolated per subscription.
  // (The session's own request echoes arrive as samples too, so key on the
  // published tags, not emptiness.)
  domain->engine().spawn([](Domain* d) -> sim::Co<> {
    co_await d->writer(1, 1).publish_bytes(bytes_of(111));
    co_await d->writer(2, 2).publish_bytes(bytes_of(222));
  }(domain.get()));
  const auto has = [](const std::vector<std::uint64_t>& v, std::uint64_t t) {
    return std::find(v.begin(), v.end(), t) != v.end();
  };
  ASSERT_TRUE(
      run_until([&] { return has(on_t1, 111) && has(on_t2, 222); }));
  // Requests echoed on a topic also arrive as that topic's samples only —
  // topic 1 must never see topic 2's traffic.
  for (std::uint64_t t : on_t1) EXPECT_NE(t, 20u);
  for (std::uint64_t t : on_t2) EXPECT_NE(t, 10u);
}

TEST_F(MuxFixture, SessionPublishReachesEveryMemberStripped) {
  make();
  Session* s = mux->connect();
  std::vector<std::uint64_t> at_member;
  domain->reader(2, 1).set_listener(
      [&](const Sample& smp) { at_member.push_back(tag_of(smp.data)); });

  ReplyStatus st = ReplyStatus::busy;
  domain->engine().spawn([](Session* sess, ReplyStatus* out) -> sim::Co<> {
    *out = co_await sess->publish(bytes_of(31337, 48));
  }(s, &st));
  ASSERT_TRUE(run_until([&] { return at_member.size() >= 1; }));
  EXPECT_EQ(st, ReplyStatus::ok);
  // The member saw the client's 48 payload bytes, not the RPC envelope.
  EXPECT_EQ(at_member[0], 31337u);
  EXPECT_EQ(s->publishes_sent(), 1u);
}

TEST_F(MuxFixture, WatermarkShedsWithExplicitBusy) {
  MuxConfig mc;
  mc.credits = 2;
  mc.admit_watermark = 2;
  make(std::move(mc));
  Session* s = mux->connect();

  constexpr std::uint64_t kBurst = 50;
  std::uint64_t done = 0, ok = 0, busy = 0;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    domain->engine().spawn([](Session* sess, std::uint64_t tag,
                              std::uint64_t* d, std::uint64_t* o,
                              std::uint64_t* b) -> sim::Co<> {
      const Reply r = co_await sess->request(bytes_of(tag));
      ++*d;
      if (r.status == ReplyStatus::ok) ++*o;
      if (r.status == ReplyStatus::busy) ++*b;
    }(s, i, &done, &ok, &busy));
  }
  ASSERT_TRUE(run_until([&] { return done == kBurst; }));

  // 2 credits + 2 parked below the watermark complete; the rest shed.
  EXPECT_EQ(ok, 4u);
  EXPECT_EQ(busy, kBurst - 4);
  EXPECT_EQ(s->rejected_busy(), kBurst - 4);
  const auto stats = domain->cluster().stats();
  const metrics::RelayTierStats* tier = stats.relay(0);
  ASSERT_NE(tier, nullptr);
  EXPECT_EQ(tier->requests_shed, kBurst - 4);
  EXPECT_EQ(tier->peak_credit_waiters, 2u);
  // Backpressure released: the pool refills once the replies land.
  EXPECT_EQ(mux->credits_available(), 2u);
  EXPECT_EQ(mux->credit_waiters(), 0u);
}

TEST_F(MuxFixture, TinyRingSaturationBackpressuresInsteadOfDropping) {
  MuxConfig mc;
  mc.ring_window = 2;  // one frame in flight per direction
  mc.credits = 16;
  mc.admit_watermark = 64;
  make(std::move(mc));
  Session* s = mux->connect();

  constexpr std::uint64_t kBurst = 24;
  std::uint64_t done = 0, ok = 0;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    domain->engine().spawn([](Session* sess, std::uint64_t tag,
                              std::uint64_t* d, std::uint64_t* o)
                               -> sim::Co<> {
      const Reply r = co_await sess->request(bytes_of(tag));
      ++*d;
      if (r.status == ReplyStatus::ok) ++*o;
    }(s, i, &done, &ok));
  }
  ASSERT_TRUE(run_until([&] { return done == kBurst; }));
  // A saturated shared ring stalls the shipper; frames queue at the
  // gateway and everything still completes.
  EXPECT_EQ(ok, kBurst);
  const auto stats = domain->cluster().stats();
  const metrics::RelayTierStats* tier = stats.relay(0);
  ASSERT_NE(tier, nullptr);
  EXPECT_GT(tier->peak_uplink_queue, 1u);
}

TEST_F(MuxFixture, CloseDrainsInFlightRequestsThenDetaches) {
  make();
  Session* s = mux->connect();
  constexpr std::uint64_t kInFlight = 12;
  std::uint64_t done = 0, ok = 0;
  for (std::uint64_t i = 0; i < kInFlight; ++i) {
    domain->engine().spawn([](Session* sess, std::uint64_t tag,
                              std::uint64_t* d, std::uint64_t* o)
                               -> sim::Co<> {
      const Reply r = co_await sess->request(bytes_of(tag));
      ++*d;
      if (r.status == ReplyStatus::ok) ++*o;
    }(s, i, &done, &ok));
  }
  // Let every request reach the in-flight map, then close underneath them.
  ASSERT_TRUE(run_until([&] { return s->in_flight() == kInFlight; }));
  bool closed = false;
  domain->engine().spawn([](Session* sess, bool* flag) -> sim::Co<> {
    co_await sess->close();
    *flag = true;
  }(s, &closed));
  ASSERT_TRUE(run_until([&] { return closed; }));

  // close() waited: every in-flight request completed normally.
  EXPECT_EQ(done, kInFlight);
  EXPECT_EQ(ok, kInFlight);
  EXPECT_EQ(s->in_flight(), 0u);
  EXPECT_FALSE(s->connected());

  // A closed session refuses new work with an explicit status.
  Reply late;
  bool late_done = false;
  domain->engine().spawn([](Session* sess, Reply* out,
                            bool* flag) -> sim::Co<> {
    *out = co_await sess->request(bytes_of(1));
    *flag = true;
  }(s, &late, &late_done));
  ASSERT_TRUE(run_until([&] { return late_done; }));
  EXPECT_EQ(late.status, ReplyStatus::cancelled);
}

TEST_F(MuxFixture, CancelResolvesInFlightNowAndCountsLateReplies) {
  make();
  Session* s = mux->connect();
  constexpr std::uint64_t kInFlight = 8;
  std::uint64_t done = 0, cancelled = 0;
  for (std::uint64_t i = 0; i < kInFlight; ++i) {
    domain->engine().spawn([](Session* sess, std::uint64_t tag,
                              std::uint64_t* d, std::uint64_t* c)
                               -> sim::Co<> {
      const Reply r = co_await sess->request(bytes_of(tag));
      ++*d;
      if (r.status == ReplyStatus::cancelled) ++*c;
    }(s, i, &done, &cancelled));
  }
  // Let the requests get admitted and staged, then cut the session.
  ASSERT_TRUE(run_until([&] { return s->in_flight() >= kInFlight; }));
  s->cancel();
  ASSERT_TRUE(run_until([&] { return done == kInFlight; }));
  EXPECT_EQ(cancelled, kInFlight);
  EXPECT_FALSE(s->connected());
  EXPECT_EQ(s->cancelled_requests(), kInFlight);

  // The already-relayed requests still flow to delivery; their replies
  // arrive after the owner is gone and are counted, not dropped.
  ASSERT_TRUE(run_until([&] {
    return domain->cluster().stats().relay(0)->late_replies > 0;
  }));
  const auto stats = domain->cluster().stats();
  EXPECT_GT(stats.relay(0)->late_replies, 0u);
  EXPECT_EQ(stats.relay(0)->requests_cancelled, kInFlight);
}

TEST_F(MuxFixture, CancelWhileParkedForCreditLeavesQueueIntact) {
  MuxConfig mc;
  mc.credits = 1;
  // Fast waiter polls: the cancelled waiters' coroutine frames die long
  // before the credit comes back, so a stale queue entry would be popped
  // dangling (the regression this guards against, caught under ASan).
  mc.per_message_overhead = 100;
  mc.admit_watermark = 8;
  make(std::move(mc));
  Session* a = mux->connect();
  Session* b = mux->connect();

  Reply ra;
  bool a_done = false;
  domain->engine().spawn([](Session* sess, Reply* out,
                            bool* flag) -> sim::Co<> {
    *out = co_await sess->request(bytes_of(1));
    *flag = true;
  }(a, &ra, &a_done));
  ASSERT_TRUE(run_until([&] { return mux->credits_available() == 0; }));

  // Park three requests of b behind the lone outstanding credit, then cut
  // the session while they wait.
  std::uint64_t b_done = 0, b_cancelled = 0;
  for (std::uint64_t i = 0; i < 3; ++i) {
    domain->engine().spawn([](Session* sess, std::uint64_t tag,
                              std::uint64_t* d, std::uint64_t* c)
                               -> sim::Co<> {
      const Reply r = co_await sess->request(bytes_of(tag));
      ++*d;
      if (r.status == ReplyStatus::cancelled) ++*c;
    }(b, 10 + i, &b_done, &b_cancelled));
  }
  ASSERT_TRUE(run_until([&] { return mux->credit_waiters() == 3; }));
  b->cancel();
  ASSERT_TRUE(run_until([&] { return b_done == 3; }));
  EXPECT_EQ(b_cancelled, 3u);

  // a's reply returns the credit; return_credit walks the (now empty)
  // queue, the pool refills, and a fresh request is admitted normally.
  ASSERT_TRUE(run_until([&] { return a_done; }));
  EXPECT_EQ(ra.status, ReplyStatus::ok);
  ASSERT_TRUE(run_until([&] { return mux->credits_available() == 1; }));
  EXPECT_EQ(mux->credit_waiters(), 0u);

  Reply r2;
  bool done2 = false;
  domain->engine().spawn([](Session* sess, Reply* out,
                            bool* flag) -> sim::Co<> {
    *out = co_await sess->request(bytes_of(2));
    *flag = true;
  }(a, &r2, &done2));
  ASSERT_TRUE(run_until([&] { return done2; }));
  EXPECT_EQ(r2.status, ReplyStatus::ok);

  // Admission is counted per request actually sent: a's two requests only
  // (the cancelled waiters never consumed an admission).
  const auto stats = domain->cluster().stats();
  EXPECT_EQ(stats.relay(0)->requests_admitted, 2u);
}

TEST_F(MuxFixture, ResubscribeSupersedesAndStaleHandleIsInert) {
  make();
  Session* s = mux->connect();
  std::vector<std::uint64_t> at_old, at_new;
  Subscription first = s->subscribe(
      [&](const Sample& smp) { at_old.push_back(tag_of(smp.data)); });
  Subscription second = s->subscribe(
      [&](const Sample& smp) { at_new.push_back(tag_of(smp.data)); });
  // Destroying the superseded handle must not cancel the live listener.
  first.cancel();

  domain->engine().spawn([](Domain* d) -> sim::Co<> {
    co_await d->writer(1, 1).publish_bytes(bytes_of(555));
  }(domain.get()));
  ASSERT_TRUE(run_until([&] { return at_new.size() >= 1; }));
  EXPECT_EQ(at_new[0], 555u);
  EXPECT_TRUE(at_old.empty());

  // The live handle still owns the subscription and can cancel it.
  second.cancel();
  domain->engine().spawn([](Domain* d) -> sim::Co<> {
    co_await d->writer(1, 1).publish_bytes(bytes_of(556));
  }(domain.get()));
  ASSERT_TRUE(run_until(
      [&] { return domain->reader(2, 1).samples_received() >= 2; }));
  EXPECT_EQ(at_new.size(), 1u);
}

TEST_F(MuxFixture, ZeroLengthRequestAndPublishComplete) {
  make();
  Session* s = mux->connect();
  std::size_t member_samples = 0;
  domain->reader(2, 1).set_listener(
      [&](const Sample&) { ++member_samples; });

  Reply reply;
  ReplyStatus pub = ReplyStatus::busy;
  bool done = false;
  domain->engine().spawn([](Session* sess, Reply* out, ReplyStatus* ps,
                            bool* flag) -> sim::Co<> {
    *out = co_await sess->request({});
    *ps = co_await sess->publish({});
    *flag = true;
  }(s, &reply, &pub, &done));
  ASSERT_TRUE(run_until([&] { return done && member_samples >= 2; }));
  EXPECT_EQ(reply.status, ReplyStatus::ok);
  EXPECT_TRUE(reply.data.empty());  // echo of the empty request
  EXPECT_GE(reply.seq, 0);
  EXPECT_EQ(pub, ReplyStatus::ok);
}

TEST_F(MuxFixture, RelayCrashDisconnectsEverySessionWithoutHanging) {
  make();
  Session* a = mux->connect();
  Session* b = mux->connect();
  std::uint64_t done = 0, disconnected = 0;
  for (Session* s : {a, b}) {
    for (std::uint64_t i = 0; i < 6; ++i) {
      domain->engine().spawn([](Session* sess, std::uint64_t tag,
                                std::uint64_t* d, std::uint64_t* dc)
                                 -> sim::Co<> {
        const Reply r = co_await sess->request(bytes_of(tag));
        ++*d;
        if (r.status == ReplyStatus::disconnected) ++*dc;
      }(s, i, &done, &disconnected));
    }
  }
  ASSERT_TRUE(run_until([&] { return a->in_flight() + b->in_flight() > 0; }));
  domain->cluster().node(0).stop();  // the relay crashes

  // Every request resolves — clients observe the disconnect, they never
  // hang on a dead relay.
  ASSERT_TRUE(run_until([&] { return done == 12; }));
  EXPECT_GT(disconnected, 0u);
  EXPECT_FALSE(a->connected());
  EXPECT_FALSE(b->connected());
  EXPECT_FALSE(mux->connected());
  EXPECT_EQ(mux->connect(), nullptr);  // no sessions onto a dead tier

  const auto stats = domain->cluster().stats();
  const metrics::RelayTierStats* tier = stats.relay(0);
  ASSERT_NE(tier, nullptr);
  EXPECT_GT(tier->disconnects, 0u);
  EXPECT_EQ(tier->sessions_live, 0u);
}

TEST_F(MuxFixture, SessionCapRefusesFurtherConnects) {
  MuxConfig mc;
  mc.max_sessions = 2;
  make(std::move(mc));
  EXPECT_NE(mux->connect(), nullptr);
  EXPECT_NE(mux->connect(), nullptr);
  EXPECT_EQ(mux->connect(), nullptr);
  EXPECT_EQ(domain->cluster().stats().relay(0)->sessions_shed, 1u);
  EXPECT_EQ(mux->live_sessions(), 2u);
}

TEST_F(MuxFixture, OversizeRequestThrowsDescriptively) {
  make();
  Session* s = mux->connect();
  bool threw = false;
  domain->engine().spawn([](Session* sess, bool* flag) -> sim::Co<> {
    try {
      co_await sess->request(std::vector<std::byte>(4096));
    } catch (const std::invalid_argument&) {
      *flag = true;
    }
  }(s, &threw));
  ASSERT_TRUE(run_until([&] { return threw; }));
}

TEST_F(MuxFixture, DomainShutdownResolvesInFlightAsDisconnected) {
  make();
  Session* s = mux->connect();
  std::uint64_t done = 0, disconnected = 0;
  for (std::uint64_t i = 0; i < 5; ++i) {
    domain->engine().spawn([](Session* sess, std::uint64_t tag,
                              std::uint64_t* d, std::uint64_t* dc)
                               -> sim::Co<> {
      const Reply r = co_await sess->request(bytes_of(tag));
      ++*d;
      if (r.status == ReplyStatus::disconnected) ++*dc;
    }(s, i, &done, &disconnected));
  }
  ASSERT_TRUE(run_until([&] { return s->in_flight() > 0; }));
  domain->shutdown();  // drains the event queue deterministically
  EXPECT_EQ(done, 5u);
  EXPECT_GT(disconnected, 0u);
}

TEST_F(MuxFixture, DeterministicAcrossIdenticalRuns) {
  auto run_once = [this]() {
    make();
    Session* s = mux->connect();
    std::vector<std::pair<std::int64_t, sim::Nanos>> trace_out;
    std::uint64_t done = 0;
    for (std::uint64_t i = 0; i < 10; ++i) {
      domain->engine().spawn([](Session* sess, std::uint64_t tag,
                                std::vector<std::pair<std::int64_t,
                                                      sim::Nanos>>* out,
                                std::uint64_t* d) -> sim::Co<> {
        const Reply r = co_await sess->request(bytes_of(tag));
        out->push_back({r.seq, r.rtt});
        ++*d;
      }(s, i, &trace_out, &done));
    }
    EXPECT_TRUE(run_until([&] { return done == 10; }));
    return trace_out;
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second);
}

TEST(MuxValidation, RejectsBadTopologies) {
  core::ClusterConfig cc;
  cc.nodes = 5;
  Domain domain(cc);
  TopicConfig tc;
  tc.name = "v";
  tc.topic_id = 1;
  tc.max_sample_size = 256;
  tc.publishers = {0};
  tc.subscribers = {0, 1};
  domain.create_topic(tc);

  // Relay must subscribe and publish; the gateway must be a spare node.
  EXPECT_THROW(domain.create_client_mux(1, 4, 2), std::invalid_argument);
  EXPECT_THROW(domain.create_client_mux(1, 4, 1), std::invalid_argument);
  EXPECT_THROW(domain.create_client_mux(1, 1, 0), std::invalid_argument);
  EXPECT_THROW(domain.create_client_mux(1, 0, 0), std::invalid_argument);
  EXPECT_THROW(domain.create_client_mux(1, 9, 0), std::invalid_argument);

  MuxConfig bad;
  bad.ring_window = 1;
  EXPECT_THROW(domain.create_client_mux(1, 4, 0, std::move(bad)),
               std::invalid_argument);

  domain.create_client_mux(1, 4, 0);  // valid
  domain.start();
  EXPECT_THROW(domain.create_client_mux(1, 4, 0), std::logic_error);
}

TEST(MuxValidation, RejectsMultiWorkerClusters) {
  // The mux's actors all run on worker 0; with the relay owned by another
  // worker it would read half-landed frames, so creation refuses up front.
  core::ClusterConfig cc;
  cc.nodes = 5;
  cc.sim_threads = 2;
  Domain domain(cc);
  ASSERT_GT(domain.cluster().sim_workers(), 1u);
  TopicConfig tc;
  tc.name = "v";
  tc.topic_id = 1;
  tc.max_sample_size = 256;
  tc.publishers = {0, 1, 2, 3};
  tc.subscribers = {0, 1, 2, 3};
  domain.create_topic(tc);
  try {
    domain.create_client_mux(1, 4, 3);
    ADD_FAILURE() << "create_client_mux accepted a two-worker cluster";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("sim_threads = 1"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace spindle::dds
