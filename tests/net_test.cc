// Unit tests for the network transport and latency models.

#include "net/network.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "net/latency_model.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace gtpl::net {
namespace {

/// The kMsgDeliver events of `tracer`, in delivery order.
std::vector<obs::TraceEvent> Deliveries(const obs::Tracer& tracer) {
  std::vector<obs::TraceEvent> out;
  for (const obs::TraceEvent& event : tracer.events()) {
    if (event.kind == obs::EventKind::kMsgDeliver) out.push_back(event);
  }
  return out;
}

/// Send time of a delivered message: delivery minus its four delay
/// components (sender queue, propagation, receiver queue, transmission).
SimTime SendTime(const obs::TraceEvent& deliver) {
  return deliver.time - deliver.d0 - deliver.d1 - deliver.d2 - deliver.d3;
}

TEST(UniformLatencyTest, SameForEveryPair) {
  UniformLatency model(250);
  EXPECT_EQ(model.Latency(0, 1), 250);
  EXPECT_EQ(model.Latency(1, 0), 250);
  EXPECT_EQ(model.Latency(3, 7), 250);
}

TEST(MatrixLatencyTest, UsesPerPairEntries) {
  MatrixLatency model({{0, 10}, {20, 0}}, /*jitter=*/0, /*seed=*/1);
  EXPECT_EQ(model.Latency(0, 1), 10);
  EXPECT_EQ(model.Latency(1, 0), 20);
  EXPECT_EQ(model.Latency(0, 0), 0);
}

TEST(MatrixLatencyTest, JitterStaysBounded) {
  MatrixLatency model({{0, 100}, {100, 0}}, /*jitter=*/10, /*seed=*/2);
  for (int i = 0; i < 200; ++i) {
    const SimTime latency = model.Latency(0, 1);
    EXPECT_GE(latency, 100);
    EXPECT_LE(latency, 110);
  }
}

TEST(PaperEnvironmentsTest, MatchTable2) {
  const auto& envs = PaperEnvironments();
  ASSERT_EQ(envs.size(), 6u);
  EXPECT_STREQ(envs[0].abbreviation, "ss-LAN");
  EXPECT_EQ(envs[0].latency, 1);
  EXPECT_STREQ(envs[3].abbreviation, "MAN");
  EXPECT_EQ(envs[3].latency, 250);
  EXPECT_STREQ(envs[5].abbreviation, "l-WAN");
  EXPECT_EQ(envs[5].latency, 750);
}

TEST(NetworkTest, DeliversAfterLatency) {
  sim::Simulator sim;
  Network net(&sim, std::make_unique<UniformLatency>(50));
  SimTime delivered_at = -1;
  net.Send(1, 0, "msg", [&] { delivered_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(delivered_at, 50);
}

TEST(NetworkTest, CountsMessagesByDirection) {
  sim::Simulator sim;
  Network net(&sim, std::make_unique<UniformLatency>(1));
  net.Send(kServerSite, 1, "s2c", [] {});
  net.Send(1, kServerSite, "c2s", [] {});
  net.Send(1, 2, "c2c", [] {});
  net.Send(2, 1, "c2c", [] {});
  sim.Run();
  EXPECT_EQ(net.stats().messages, 4u);
  EXPECT_EQ(net.stats().server_to_client, 1u);
  EXPECT_EQ(net.stats().client_to_server, 1u);
  EXPECT_EQ(net.stats().client_to_client, 2u);
}

TEST(NetworkTest, DeliverEventsRecordTimeline) {
  sim::Simulator sim;
  obs::Tracer tracer;
  tracer.Attach(&sim);
  tracer.Enable();
  Network net(&sim, std::make_unique<UniformLatency>(10));
  net.SetTracer(&tracer);
  net.Send(1, 2, "hop", [&] {
    net.Send(2, 0, "back", [] {});
  });
  sim.Run();
  const std::vector<obs::TraceEvent> delivered = Deliveries(tracer);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(SendTime(delivered[0]), 0);
  EXPECT_EQ(delivered[0].time, 10);
  EXPECT_EQ(delivered[0].label, "hop");
  EXPECT_EQ(delivered[0].site, 2);
  EXPECT_EQ(delivered[0].peer, 1);
  EXPECT_EQ(SendTime(delivered[1]), 10);
  EXPECT_EQ(delivered[1].time, 20);
  EXPECT_EQ(delivered[1].label, "back");
}

TEST(NetworkTest, NoTraceWhenTracerDisabled) {
  sim::Simulator sim;
  obs::Tracer tracer;
  tracer.Attach(&sim);
  Network net(&sim, std::make_unique<UniformLatency>(10));
  net.SetTracer(&tracer);
  net.Send(1, 2, "hop", [] {});
  sim.Run();
  EXPECT_TRUE(tracer.events().empty());
}

TEST(NetworkTest, SameTickMessagesDeliverInSendOrder) {
  sim::Simulator sim;
  Network net(&sim, std::make_unique<UniformLatency>(5));
  std::vector<int> order;
  net.Send(1, 0, "a", [&] { order.push_back(1); });
  net.Send(2, 0, "b", [&] { order.push_back(2); });
  net.Send(3, 0, "c", [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(NetworkTest, PayloadAccounting) {
  sim::Simulator sim;
  Network net(&sim, std::make_unique<UniformLatency>(1));
  net.Send(1, 0, "control", [] {});  // default: one control unit
  net.Send(0, 1, "grant+data", [] {}, kControlPayload + kDataPayload);
  net.Send(1, 2, "fl-data", [] {}, kDataPayload + 3 * kFlSlotPayload);
  sim.Run();
  EXPECT_EQ(net.stats().messages, 3u);
  EXPECT_EQ(net.stats().payload_units,
            kControlPayload + (kControlPayload + kDataPayload) +
                (kDataPayload + 3 * kFlSlotPayload));
  // Pure propagation charges no transmission and records no queue waits.
  EXPECT_EQ(net.stats().transmission_ticks, 0u);
  EXPECT_EQ(net.stats().sender_queue_delay.count(), 0);
  EXPECT_EQ(net.stats().receiver_queue_delay.count(), 0);
}

TEST(NetworkTest, SiteLayoutClassifiesShardServerTraffic) {
  sim::Simulator sim;
  Network net(&sim, std::make_unique<UniformLatency>(1));
  // Sharded layout: 2 clients (sites 1-2); shard servers at 0 and 3.
  net.SetSiteLayout(/*num_clients=*/2);
  EXPECT_TRUE(net.IsServerSite(0));
  EXPECT_FALSE(net.IsServerSite(1));
  EXPECT_FALSE(net.IsServerSite(2));
  EXPECT_TRUE(net.IsServerSite(3));
  net.Send(1, 3, "prepare", [] {});  // client -> shard server
  net.Send(3, 2, "vote", [] {});     // shard server -> client
  net.Send(0, 3, "coord", [] {});    // server -> server
  net.Send(1, 2, "data", [] {});     // client -> client migration
  sim.Run();
  EXPECT_EQ(net.stats().client_to_server, 1u);
  EXPECT_EQ(net.stats().server_to_client, 1u);
  EXPECT_EQ(net.stats().server_to_server, 1u);
  EXPECT_EQ(net.stats().client_to_client, 1u);
}

TEST(NetworkTest, DeliverEventCarriesPayloadAndDegenerateQueueTimes) {
  sim::Simulator sim;
  obs::Tracer tracer;
  tracer.Attach(&sim);
  tracer.Enable();
  Network net(&sim, std::make_unique<UniformLatency>(10));
  net.SetTracer(&tracer);
  net.Send(1, 0, "req", [] {}, kControlPayload + kDataPayload);
  sim.Run();
  const std::vector<obs::TraceEvent> delivered = Deliveries(tracer);
  ASSERT_EQ(delivered.size(), 1u);
  const obs::TraceEvent& event = delivered[0];
  EXPECT_EQ(event.payload,
            static_cast<int64_t>(kControlPayload + kDataPayload));
  // Pure propagation: no sender queueing (tx starts at send time), no
  // receiver queueing and no transmission (first bit and delivery
  // coincide); the whole flight is propagation.
  EXPECT_EQ(event.d0, 0);
  EXPECT_EQ(event.d1, 10);
  EXPECT_EQ(event.d2, 0);
  EXPECT_EQ(event.d3, 0);
}

TEST(NetworkTest, LinkDeliverEventsSeparateQueueingFromTransmission) {
  sim::Simulator sim;
  obs::Tracer tracer;
  tracer.Attach(&sim);
  tracer.Enable();
  LinkConfig link;
  link.bandwidth = 1.0;  // payload 8 -> 8 ticks of transmission
  link.nic_queue = true;
  Network net(&sim, std::make_unique<UniformLatency>(10), link);
  net.SetTracer(&tracer);
  // Two same-tick sends from one site: b waits behind a in the uplink.
  net.Send(1, 0, "a", [] {}, 8);
  net.Send(1, 0, "b", [] {}, 8);
  sim.Run();
  const std::vector<obs::TraceEvent> delivered = Deliveries(tracer);
  ASSERT_EQ(delivered.size(), 2u);
  const obs::TraceEvent& a = delivered[0];
  EXPECT_EQ(a.label, "a");
  EXPECT_EQ(SendTime(a), 0);
  EXPECT_EQ(a.d0, 0);    // transmits at once
  EXPECT_EQ(a.d1, 10);   // first bit at the downlink after propagation
  EXPECT_EQ(a.d2, 0);    // downlink idle on arrival
  EXPECT_EQ(a.d3, 8);    // + transmission at the downlink
  EXPECT_EQ(a.time, 18);
  const obs::TraceEvent& b = delivered[1];
  EXPECT_EQ(b.label, "b");
  EXPECT_EQ(SendTime(b), 0);
  EXPECT_EQ(b.d0, 8);    // queued behind a's transmission
  EXPECT_EQ(b.d1, 10);   // first bit at t = 18, as a's last bit leaves
  EXPECT_EQ(b.d2, 0);
  EXPECT_EQ(b.d3, 8);
  EXPECT_EQ(b.time, 26);
  EXPECT_EQ(net.stats().sender_queue_delay.count(), 2);
  EXPECT_EQ(net.stats().sender_queue_delay.max(), 8.0);
  EXPECT_EQ(net.stats().transmission_ticks, 16u);
}

TEST(NetworkTest, InfiniteBandwidthBypassesLinkModel) {
  sim::Simulator sim;
  LinkConfig link;
  link.bandwidth = 0.0;  // infinite: the paper's model
  link.nic_queue = true;
  Network net(&sim, std::make_unique<UniformLatency>(50), link);
  EXPECT_EQ(net.link_model(), nullptr);
  SimTime delivered_at = -1;
  net.Send(1, 0, "msg", [&] { delivered_at = sim.Now(); }, 1000);
  const uint64_t events = sim.Run();
  EXPECT_EQ(delivered_at, 50);
  EXPECT_EQ(events, 1u);  // one delivery event, exactly like pure propagation
  EXPECT_EQ(net.MaxLinkUtilization(50), 0.0);
}

}  // namespace
}  // namespace gtpl::net
