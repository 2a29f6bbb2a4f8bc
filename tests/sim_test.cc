#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace ratc::sim {
namespace {

struct Ping {
  static constexpr const char* kName = "PING";
  int seq = 0;
};
struct Pong {
  static constexpr const char* kName = "PONG";
  int seq = 0;
};

/// Records everything it receives; optionally replies to pings.
class Echo : public Process {
 public:
  Echo(Simulator& sim, ProcessId id, Network* net, bool reply)
      : Process(sim, id, "echo" + std::to_string(id)), net_(net), reply_(reply) {}

  void on_message(ProcessId from, const AnyMessage& msg) override {
    if (const auto* ping = msg.as<Ping>()) {
      received.push_back(ping->seq);
      receive_times.push_back(rt().now());
      if (reply_) net_->send_msg(id(), from, Pong{ping->seq});
    }
    if (const auto* pong = msg.as<Pong>()) {
      pongs.push_back(pong->seq);
    }
  }

  std::vector<int> received;
  std::vector<Time> receive_times;
  std::vector<int> pongs;

 private:
  Network* net_;
  bool reply_;
};

TEST(AnyMessage, TypedAccess) {
  AnyMessage m{Ping{7}};
  ASSERT_NE(m.as<Ping>(), nullptr);
  EXPECT_EQ(m.as<Ping>()->seq, 7);
  EXPECT_EQ(m.as<Pong>(), nullptr);
  EXPECT_TRUE(m.is<Ping>());
  EXPECT_STREQ(m.type_name(), "PING");
}

TEST(Simulator, UnitDelayDelivery) {
  Simulator sim(1);
  Network net(sim);
  Echo a(sim, 1, &net, false), b(sim, 2, &net, true);
  sim.add_process(&a);
  sim.add_process(&b);

  net.send_msg(a.id(), b.id(), Ping{1});
  sim.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.receive_times[0], 1u);   // one message delay
  ASSERT_EQ(a.pongs.size(), 1u);       // round trip
  EXPECT_EQ(sim.now(), 2u);            // two message delays total
}

TEST(Simulator, FifoPerChannelUnderRandomDelays) {
  Simulator sim(3);
  auto opts = Network::exponential_delay_options(5.0);
  Network net(sim, opts);
  Echo a(sim, 1, &net, false), b(sim, 2, &net, false);
  sim.add_process(&a);
  sim.add_process(&b);
  for (int i = 0; i < 200; ++i) net.send_msg(a.id(), b.id(), Ping{i});
  sim.run();
  ASSERT_EQ(b.received.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(b.received[static_cast<size_t>(i)], i);
}

TEST(Simulator, CrashStopsDeliveryAndSends) {
  Simulator sim(5);
  Network net(sim);
  Echo a(sim, 1, &net, false), b(sim, 2, &net, true);
  sim.add_process(&a);
  sim.add_process(&b);

  net.send_msg(a.id(), b.id(), Ping{1});
  sim.crash(b.id());
  net.send_msg(a.id(), b.id(), Ping{2});
  sim.run();
  EXPECT_TRUE(b.received.empty());  // in-flight message dropped at delivery
  EXPECT_TRUE(a.pongs.empty());

  // Sends from a crashed process are discarded at the source.
  sim.crash(a.id());
  net.send_msg(a.id(), b.id(), Ping{3});
  EXPECT_EQ(sim.run(), 0u);
}

TEST(Simulator, TimersSkippedForCrashedOwner) {
  Simulator sim(7);
  int fired = 0;
  Network net(sim);
  Echo a(sim, 1, &net, false);
  sim.add_process(&a);
  sim.schedule_for(a.id(), 10, [&] { ++fired; });
  sim.schedule_for(a.id(), 20, [&] { ++fired; });
  sim.schedule(15, [&] { sim.crash(a.id()); });
  sim.run();
  EXPECT_EQ(fired, 1);  // only the pre-crash timer fired
}

TEST(Simulator, DeterministicTieBreak) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim(seed);
    Network net(sim);
    Echo a(sim, 1, &net, false), b(sim, 2, &net, false);
    sim.add_process(&a);
    sim.add_process(&b);
    // Two messages scheduled for the same tick must arrive in send order.
    net.send_msg(a.id(), b.id(), Ping{1});
    net.send_msg(a.id(), b.id(), Ping{2});
    sim.run();
    return b.received;
  };
  EXPECT_EQ(run_once(1), (std::vector<int>{1, 2}));
  EXPECT_EQ(run_once(99), (std::vector<int>{1, 2}));
}

TEST(Simulator, RunUntilPred) {
  Simulator sim(9);
  Network net(sim);
  Echo a(sim, 1, &net, false), b(sim, 2, &net, false);
  sim.add_process(&a);
  sim.add_process(&b);
  for (int i = 0; i < 10; ++i) net.send_msg(a.id(), b.id(), Ping{i});
  bool ok = sim.run_until_pred([&] { return b.received.size() >= 3; });
  EXPECT_TRUE(ok);
  EXPECT_GE(b.received.size(), 3u);
  EXPECT_LT(b.received.size(), 10u);
  sim.run();
  EXPECT_EQ(b.received.size(), 10u);
}

TEST(Simulator, RunUntilAdvancesClock) {
  Simulator sim(11);
  sim.run_until(500);
  EXPECT_EQ(sim.now(), 500u);
}

TEST(Network, TrafficStats) {
  Simulator sim(13);
  Network net(sim);
  Echo a(sim, 1, &net, false), b(sim, 2, &net, true);
  sim.add_process(&a);
  sim.add_process(&b);
  for (int i = 0; i < 5; ++i) net.send_msg(a.id(), b.id(), Ping{i});
  sim.run();
  EXPECT_EQ(net.traffic(a.id()).msgs_sent, 5u);
  EXPECT_EQ(net.traffic(b.id()).msgs_received, 5u);
  EXPECT_EQ(net.traffic(b.id()).msgs_sent, 5u);  // pongs
  EXPECT_EQ(net.traffic(a.id()).sent_by_type().at("PING"), 5u);
  EXPECT_EQ(net.traffic(b.id()).received_by_type().at("PING"), 5u);
  EXPECT_EQ(net.total_messages(), 10u);
  EXPECT_GT(net.total_bytes(), 0u);
}

TEST(Network, TracerSeesFlow) {
  Simulator sim(15);
  Network net(sim);
  Tracer tracer;
  net.add_observer(&tracer);
  Echo a(sim, 1, &net, false), b(sim, 2, &net, true);
  sim.add_process(&a);
  sim.add_process(&b);
  net.send_msg(a.id(), b.id(), Ping{1});
  sim.run();
  auto types = tracer.delivered_types();
  ASSERT_EQ(types.size(), 2u);
  EXPECT_EQ(types[0], "PING");
  EXPECT_EQ(types[1], "PONG");
  EXPECT_TRUE(tracer.delivered("PONG"));
  EXPECT_FALSE(tracer.delivered("NOPE"));
  EXPECT_NE(tracer.render().find("PING"), std::string::npos);
}

TEST(Network, DropObservedForCrashedReceiver) {
  Simulator sim(17);
  Network net(sim);
  Tracer tracer;
  net.add_observer(&tracer);
  Echo a(sim, 1, &net, false), b(sim, 2, &net, false);
  sim.add_process(&a);
  sim.add_process(&b);
  net.send_msg(a.id(), b.id(), Ping{1});
  sim.crash(b.id());
  sim.run();
  bool saw_drop = false;
  for (const auto& e : tracer.entries()) {
    if (e.kind == TraceEntry::Kind::kDrop) saw_drop = true;
  }
  EXPECT_TRUE(saw_drop);
}

}  // namespace
}  // namespace ratc::sim
