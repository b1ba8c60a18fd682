#include "net/network.h"

#include <utility>

#include "common/check.h"

namespace gtpl::net {

Network::Network(sim::Simulator* simulator,
                 std::unique_ptr<LatencyModel> latency,
                 const LinkConfig& link)
    : simulator_(simulator),
      latency_(std::move(latency)),
      queue_delay_hist_(/*max_value=*/16384.0, /*num_buckets=*/1024) {
  GTPL_CHECK(simulator_ != nullptr);
  GTPL_CHECK(latency_ != nullptr);
  // A LinkModel only exists when it charges something; the infinite-
  // bandwidth configuration keeps the original pure-propagation Send path
  // byte for byte (the degenerate-case guarantee the equivalence suite
  // pins).
  if (link.bandwidth > 0.0) link_ = std::make_unique<LinkModel>(link);
}

double Network::MaxLinkUtilization(SimTime horizon) const {
  return link_ == nullptr ? 0.0 : link_->MaxUtilization(horizon);
}

uint32_t Network::Park(std::string&& label, sim::Callback&& deliver) {
  uint32_t slot;
  if (free_flights_.empty()) {
    slot = static_cast<uint32_t>(flights_.size());
    flights_.emplace_back();
  } else {
    slot = free_flights_.back();
    free_flights_.pop_back();
  }
  Flight& flight = flights_[slot];
  flight.deliver = std::move(deliver);
  flight.label = std::move(label);
  return slot;
}

void Network::ArriveFirstBit(const Route& route, uint32_t slot) {
  const SimTime arrival = simulator_->Now();
  const SimTime service = link_->TransmissionDelay(route.payload);
  const SimTime deliver_time =
      link_->AdmitDownlink(route.to, route.payload, arrival);
  const SimTime receiver_delay = deliver_time - service - arrival;
  stats_.receiver_queue_delay.Add(static_cast<double>(receiver_delay));
  const SimTime sender_delay = route.tx_start - route.send_time;
  queue_delay_hist_.Add(static_cast<double>(sender_delay + receiver_delay));
  simulator_->ScheduleAt(deliver_time,
                         [this, route, slot] { Deliver(route, slot); });
}

void Network::Deliver(const Route& route, uint32_t slot) {
  Flight& flight = flights_[slot];
  DeliveryInfo info;
  info.active = true;
  info.send_time = route.send_time;
  info.tx_start = route.tx_start;
  info.rx_queue_entry = route.rx_queue_entry;
  info.deliver_time = simulator_->Now();
  info.from = route.from;
  info.to = route.to;
  info.payload = route.payload;
  if (tracer_ != nullptr && tracer_->enabled()) {
    const SimTime service =
        link_ == nullptr ? 0 : link_->TransmissionDelay(info.payload);
    obs::TraceEvent event;
    event.kind = obs::EventKind::kMsgDeliver;
    event.site = info.to;
    event.peer = info.from;
    event.payload = static_cast<int64_t>(info.payload);
    event.label = flight.label;
    event.d0 = info.tx_start - info.send_time;               // sender queue
    event.d1 = info.Propagation();                           // propagation
    event.d2 = info.deliver_time - info.rx_queue_entry - service;
    event.d3 = service;                                      // transmission
    tracer_->Emit(std::move(event));
  }
  // Out of the slot before it runs: the delivery may Send again, which can
  // reuse the slot or grow flights_.
  sim::Callback deliver = std::move(flight.deliver);
  free_flights_.push_back(slot);
  current_delivery_ = info;
  deliver();
  current_delivery_.active = false;
}

void Network::Send(SiteId from, SiteId to, std::string label,
                   sim::Callback&& on_deliver, uint64_t payload) {
  const SimTime propagation = latency_->Latency(from, to);
  stats_.Count(IsServerSite(from), IsServerSite(to), payload);

  const SimTime now = simulator_->Now();
  if (link_ == nullptr) {
    if (tracer_ != nullptr && tracer_->enabled()) {
      obs::TraceEvent event;
      event.kind = obs::EventKind::kMsgSend;
      event.site = from;
      event.peer = to;
      event.payload = static_cast<int64_t>(payload);
      event.label = label;
      tracer_->Emit(std::move(event));
    }
    const Route route{now, now, now + propagation, from, to, payload};
    const uint32_t slot = Park(std::move(label), std::move(on_deliver));
    simulator_->Schedule(propagation,
                         [this, route, slot] { Deliver(route, slot); });
    return;
  }

  // Link model: FIFO through the sender's uplink now, then propagation,
  // then FIFO through the receiver's downlink when the first bit arrives
  // (a second event, so downlink order is true arrival order).
  const SimTime service = link_->TransmissionDelay(payload);
  const SimTime departure = link_->AdmitUplink(from, payload, now);
  const SimTime tx_start = departure - service;
  const SimTime sender_delay = tx_start - now;
  stats_.sender_queue_delay.Add(static_cast<double>(sender_delay));
  stats_.transmission_ticks += static_cast<uint64_t>(service);
  const SimTime first_bit_arrival = tx_start + propagation;

  if (tracer_ != nullptr && tracer_->enabled()) {
    obs::TraceEvent event;
    event.kind = obs::EventKind::kMsgSend;
    event.site = from;
    event.peer = to;
    event.payload = static_cast<int64_t>(payload);
    event.label = label;
    event.d0 = sender_delay;
    event.d1 = service;
    tracer_->Emit(std::move(event));
  }

  const Route route{now, tx_start, first_bit_arrival, from, to, payload};
  const uint32_t slot = Park(std::move(label), std::move(on_deliver));
  simulator_->ScheduleAt(first_bit_arrival,
                         [this, route, slot] { ArriveFirstBit(route, slot); });
}

}  // namespace gtpl::net
