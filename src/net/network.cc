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

void Network::RunDelivery(const DeliveryInfo& info, const std::string& label,
                          const std::function<void()>& deliver) {
  if (tracer_ != nullptr && tracer_->enabled()) {
    const SimTime service =
        link_ == nullptr ? 0 : link_->TransmissionDelay(info.payload);
    obs::TraceEvent event;
    event.kind = obs::EventKind::kMsgDeliver;
    event.site = info.to;
    event.peer = info.from;
    event.payload = static_cast<int64_t>(info.payload);
    event.label = label;
    event.d0 = info.tx_start - info.send_time;               // sender queue
    event.d1 = info.Propagation();                           // propagation
    event.d2 = info.deliver_time - info.rx_queue_entry - service;
    event.d3 = service;                                      // transmission
    tracer_->Emit(std::move(event));
  }
  current_delivery_ = info;
  deliver();
  current_delivery_.active = false;
}

void Network::Send(SiteId from, SiteId to, std::string label,
                   std::function<void()> on_deliver, uint64_t payload) {
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
    DeliveryInfo info;
    info.active = true;
    info.send_time = now;
    info.tx_start = now;
    info.rx_queue_entry = now + propagation;
    info.deliver_time = now + propagation;
    info.from = from;
    info.to = to;
    info.payload = payload;
    simulator_->Schedule(propagation,
                         [this, info, label = std::move(label),
                          deliver = std::move(on_deliver)] {
                           RunDelivery(info, label, deliver);
                         });
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

  simulator_->ScheduleAt(
      first_bit_arrival,
      [this, from, to, payload, service, sender_delay, send_time = now,
       tx_start, label = std::move(label),
       deliver = std::move(on_deliver)]() mutable {
        const SimTime arrival = simulator_->Now();
        const SimTime deliver_time = link_->AdmitDownlink(to, payload, arrival);
        const SimTime receiver_delay = deliver_time - service - arrival;
        stats_.receiver_queue_delay.Add(static_cast<double>(receiver_delay));
        queue_delay_hist_.Add(
            static_cast<double>(sender_delay + receiver_delay));
        DeliveryInfo info;
        info.active = true;
        info.send_time = send_time;
        info.tx_start = tx_start;
        info.rx_queue_entry = arrival;
        info.deliver_time = deliver_time;
        info.from = from;
        info.to = to;
        info.payload = payload;
        simulator_->ScheduleAt(deliver_time,
                               [this, info, label = std::move(label),
                                deliver = std::move(deliver)] {
                                 RunDelivery(info, label, deliver);
                               });
      });
}

}  // namespace gtpl::net
