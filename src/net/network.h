#ifndef GTPL_NET_NETWORK_H_
#define GTPL_NET_NETWORK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "net/latency_model.h"
#include "net/link_model.h"
#include "obs/trace.h"
#include "sim/callback.h"
#include "sim/simulator.h"
#include "stats/histogram.h"
#include "stats/welford.h"

namespace gtpl::net {

/// Timing of the delivery being executed *right now*: valid (active) only
/// for the dynamic extent of a delivery callback, so protocol handlers can
/// attribute the arriving message's latency (propagation vs. transmission +
/// NIC queueing) without the transport knowing anything about protocols.
/// Propagation = rx_queue_entry - tx_start; everything else of
/// (deliver_time - send_time) is transmission + queueing (zero under the
/// pure-propagation model).
struct DeliveryInfo {
  bool active = false;
  SimTime send_time = 0;
  SimTime tx_start = 0;        // uplink service start (sender queue exit)
  SimTime rx_queue_entry = 0;  // first bit at the receiver downlink
  SimTime deliver_time = 0;
  SiteId from = 0;
  SiteId to = 0;
  uint64_t payload = 0;

  SimTime Propagation() const { return rx_queue_entry - tx_start; }
  SimTime Queueing() const {
    return (deliver_time - send_time) - Propagation();
  }
};

/// Statistics a Network keeps about the traffic it carried. Payload is
/// counted in abstract units (see kControlPayload etc. below): the paper
/// argues message *size* is not the constraint at gigabit rates, and the
/// payload counters let benches show g-2PL's larger-but-fewer messages.
/// The queue-delay accumulators stay empty under the pure-propagation
/// model; they fill when a finite-bandwidth LinkModel is attached.
struct NetworkStats {
  uint64_t messages = 0;
  uint64_t server_to_client = 0;
  uint64_t client_to_server = 0;
  uint64_t client_to_client = 0;
  /// Server-site to server-site messages (2PC / shard coordination traffic;
  /// 0 unless the site layout has several servers).
  uint64_t server_to_server = 0;
  uint64_t payload_units = 0;
  /// Total transmission (serialization) ticks charged across all messages.
  uint64_t transmission_ticks = 0;
  /// Per-message FIFO queueing delay at the sender uplink / the receiver
  /// downlink (LinkModel with nic_queue; zero-count otherwise).
  stats::Welford sender_queue_delay;
  stats::Welford receiver_queue_delay;

  /// Counts one message of `payload` units in its direction.
  void Count(bool from_server, bool to_server, uint64_t payload) {
    ++messages;
    payload_units += payload;
    if (from_server && to_server) {
      ++server_to_server;
    } else if (from_server) {
      ++server_to_client;
    } else if (to_server) {
      ++client_to_server;
    } else {
      ++client_to_client;
    }
  }
};

/// Abstract payload sizes: a control message (request, release, ack,
/// abort), one data-item copy, and one forward-list slot rider.
inline constexpr uint64_t kControlPayload = 1;
inline constexpr uint64_t kDataPayload = 8;
inline constexpr uint64_t kFlSlotPayload = 1;

/// Message transport over the simulator: Send() schedules the delivery
/// callback at the destination. Protocol payloads live in the closure, so
/// the transport is protocol-agnostic. A message in flight parks its
/// callback and label in a Network-owned slab, and its events capture the
/// slab slot and the message's timing, so sending allocates nothing once
/// the slab has grown to the peak number of messages in flight.
///
/// By default delivery is charged pure propagation delay — the paper's
/// model ("the size of the message is less of a concern than the number of
/// rounds of message passing"). Attaching a finite-bandwidth LinkConfig
/// layers transmission delay and per-endpoint NIC queueing on top (see
/// LinkModel); with bandwidth infinite the link path is bypassed entirely
/// and the transport is bit-identical to the pure-propagation model.
class Network {
 public:
  Network(sim::Simulator* simulator, std::unique_ptr<LatencyModel> latency,
          const LinkConfig& link = LinkConfig{});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Delivers `on_deliver` at the destination after the model's latency.
  /// `label` is used only when a tracer is enabled; `payload` is the abstract
  /// message size recorded in the stats (default: a control message) and
  /// charged transmission delay under a finite-bandwidth link model.
  void Send(SiteId from, SiteId to, std::string label,
            sim::Callback&& on_deliver, uint64_t payload = kControlPayload);

  /// Declares the site layout for direction accounting: sites kServerSite
  /// and every site > `num_clients` are data servers (the sharded engines'
  /// layout — shard k >= 1 lives at site num_clients + k). Without a
  /// layout only kServerSite counts as a server.
  void SetSiteLayout(int32_t num_clients) { num_clients_ = num_clients; }
  bool IsServerSite(SiteId site) const {
    return site == kServerSite || (num_clients_ >= 0 && site > num_clients_);
  }

  /// Attaches a structured tracer: every Send emits kMsgSend, every
  /// delivery kMsgDeliver (with the queueing breakdown in d0..d3). The
  /// tracer observes only — it never schedules or draws randomness.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Timing of the delivery currently being executed (active only inside a
  /// delivery callback).
  const DeliveryInfo& current_delivery() const { return current_delivery_; }

  const NetworkStats& stats() const { return stats_; }

  /// Distribution of per-message total queueing delay (sender + receiver);
  /// empty under the pure-propagation model.
  const stats::Histogram& queue_delay_histogram() const {
    return queue_delay_hist_;
  }

  /// Busy fraction of the busiest NIC over `[0, horizon]`; 0 without a
  /// finite-bandwidth link model. Can exceed 1 when overloaded (queued
  /// service extends past the horizon).
  double MaxLinkUtilization(SimTime horizon) const;

  sim::Simulator* simulator() const { return simulator_; }
  LatencyModel* latency_model() const { return latency_.get(); }
  /// nullptr when the link model is disabled (infinite bandwidth).
  LinkModel* link_model() const { return link_.get(); }

 private:
  sim::Simulator* simulator_;
  std::unique_ptr<LatencyModel> latency_;
  std::unique_ptr<LinkModel> link_;
  NetworkStats stats_;
  stats::Histogram queue_delay_hist_;
  int32_t num_clients_ = -1;  // -1: no layout declared
  obs::Tracer* tracer_ = nullptr;
  DeliveryInfo current_delivery_;

  /// A message's timing and endpoints. It rides in the capture of the
  /// message's events (16 + 40 bytes of sim::Callback's 64), so the parked
  /// flight holds only what has no room there. The delivery time is the
  /// delivery event's own time.
  struct Route {
    SimTime send_time = 0;
    SimTime tx_start = 0;
    SimTime rx_queue_entry = 0;  // first bit at the receiver downlink
    SiteId from = 0;
    SiteId to = 0;
    uint64_t payload = 0;
  };

  /// A message between Send and its delivery: its callback and trace label.
  struct Flight {
    sim::Callback deliver;
    std::string label;  // at most 15 chars: inline, never allocates
  };
  std::vector<Flight> flights_;  // by slot
  std::vector<uint32_t> free_flights_;

  /// Parks a message's callback and label in a free slot; returns the slot.
  uint32_t Park(std::string&& label, sim::Callback&& deliver);

  /// Link model: the first bit reaches the receiver downlink; admits the
  /// message there and schedules its delivery.
  void ArriveFirstBit(const Route& route, uint32_t slot);

  /// Frees the slot, then runs its callback with current_delivery_ set (and
  /// the kMsgDeliver trace event emitted first).
  void Deliver(const Route& route, uint32_t slot);
};

}  // namespace gtpl::net

#endif  // GTPL_NET_NETWORK_H_
