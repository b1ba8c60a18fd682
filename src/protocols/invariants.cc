#include "protocols/invariants.h"

#include <cstdio>
#include <map>
#include <utility>

#include "core/forward_list.h"

namespace gtpl::proto {
namespace {

std::string Describe(const ProtocolEvent& event) {
  char buffer[128];
  std::snprintf(buffer, sizeof(buffer),
                "event(kind=%d time=%lld txn=%lld item=%d server=%d)",
                static_cast<int>(event.kind),
                static_cast<long long>(event.time),
                static_cast<long long>(event.txn), event.item, event.server);
  return buffer;
}

void Explain(std::string* explanation, std::string text) {
  if (explanation != nullptr) *explanation = std::move(text);
}

}  // namespace

std::vector<obs::FlEntrySnapshot> SnapshotForwardList(
    const core::ForwardList& fl) {
  std::vector<obs::FlEntrySnapshot> entries;
  entries.reserve(static_cast<size_t>(fl.num_entries()));
  for (int32_t e = 0; e < fl.num_entries(); ++e) {
    obs::FlEntrySnapshot snapshot;
    snapshot.is_read_group = fl.entry(e).is_read_group;
    for (const core::FlMember& member : fl.entry(e).members) {
      snapshot.txns.push_back(member.txn);
    }
    entries.push_back(std::move(snapshot));
  }
  return entries;
}

std::vector<ProtocolEvent> ProtocolEventsFromTrace(
    const std::vector<obs::TraceEvent>& trace) {
  std::vector<ProtocolEvent> events;
  for (const obs::TraceEvent& te : trace) {
    ProtocolEventKind kind;
    switch (te.kind) {
      case obs::EventKind::kWindowDispatch:
        kind = ProtocolEventKind::kWindowDispatched;
        break;
      case obs::EventKind::kWindowExpand:
        kind = ProtocolEventKind::kWindowExpanded;
        break;
      case obs::EventKind::kReaderRelease:
        kind = ProtocolEventKind::kReaderReleaseArrived;
        break;
      case obs::EventKind::kWriterRelease:
        kind = ProtocolEventKind::kWriterUpdateReleased;
        break;
      case obs::EventKind::kGraphCheck:
        kind = ProtocolEventKind::kGraphCheck;
        break;
      case obs::EventKind::kPrepare:
        kind = ProtocolEventKind::kPrepareArrived;
        break;
      case obs::EventKind::kVote:
        kind = ProtocolEventKind::kVoteArrived;
        break;
      case obs::EventKind::kDecide:
        kind = ProtocolEventKind::kCommitDecisionArrived;
        break;
      case obs::EventKind::kLeaseGrant:
        kind = ProtocolEventKind::kLeaseGranted;
        break;
      case obs::EventKind::kLeaseRevoke:
        kind = ProtocolEventKind::kLeaseRevoked;
        break;
      case obs::EventKind::kLeaseRelease:
        kind = ProtocolEventKind::kLeaseReleased;
        break;
      default:
        continue;  // lifecycle / lock / message events have no counterpart
    }
    ProtocolEvent pe;
    pe.kind = kind;
    pe.time = te.time;
    pe.txn = te.txn;
    pe.item = te.item;
    pe.server = te.shard;
    if (kind == ProtocolEventKind::kLeaseGranted ||
        kind == ProtocolEventKind::kLeaseRevoked ||
        kind == ProtocolEventKind::kLeaseReleased) {
      pe.site = te.site;
    }
    pe.flag = te.flag;
    pe.entries = te.entries;
    events.push_back(std::move(pe));
  }
  return events;
}

bool CheckAcyclicity(const std::vector<ProtocolEvent>& events,
                     std::string* explanation) {
  for (const ProtocolEvent& event : events) {
    if (event.kind == ProtocolEventKind::kGraphCheck && !event.flag) {
      Explain(explanation,
              "precedence graph cyclic at " + Describe(event));
      return false;
    }
  }
  return true;
}

bool CheckForwardListOrderConsistency(
    const std::vector<ProtocolEvent>& events, std::string* explanation) {
  // sign[{a,b}] with a < b: +1 when a precedes b, -1 when b precedes a.
  std::map<std::pair<TxnId, TxnId>, int> sign;
  for (const ProtocolEvent& event : events) {
    if (event.kind != ProtocolEventKind::kWindowDispatched &&
        event.kind != ProtocolEventKind::kWindowExpanded) {
      continue;
    }
    for (size_t i = 0; i < event.entries.size(); ++i) {
      for (size_t j = i + 1; j < event.entries.size(); ++j) {
        for (TxnId first : event.entries[i].txns) {
          for (TxnId second : event.entries[j].txns) {
            const bool swapped = second < first;
            const std::pair<TxnId, TxnId> key =
                swapped ? std::make_pair(second, first)
                        : std::make_pair(first, second);
            const int order = swapped ? -1 : +1;
            auto [it, inserted] = sign.emplace(key, order);
            if (!inserted && it->second != order) {
              Explain(explanation,
                      "transactions " + std::to_string(key.first) + " and " +
                          std::to_string(key.second) +
                          " appear in opposite orders; second occurrence at " +
                          Describe(event));
              return false;
            }
          }
        }
      }
    }
  }
  return true;
}

bool CheckMr1wDiscipline(const std::vector<ProtocolEvent>& events,
                         std::string* explanation) {
  // (writer txn, item) -> number of reader releases the writer must collect
  // before releasing its update: the size of the read group directly
  // preceding it in the dispatched forward list. Expansion events
  // re-publish the list and overwrite the expectation (expansion only
  // applies to pure read groups, so it can never grow a group that already
  // has a trailing writer — but processing events in order keeps the
  // checker robust either way).
  std::map<std::pair<TxnId, ItemId>, int> expected;
  std::map<std::pair<TxnId, ItemId>, int> arrived;
  for (const ProtocolEvent& event : events) {
    switch (event.kind) {
      case ProtocolEventKind::kWindowDispatched:
      case ProtocolEventKind::kWindowExpanded:
        for (size_t e = 1; e < event.entries.size(); ++e) {
          const obs::FlEntrySnapshot& entry = event.entries[e];
          const obs::FlEntrySnapshot& previous = event.entries[e - 1];
          if (entry.is_read_group || !previous.is_read_group) continue;
          for (TxnId writer : entry.txns) {
            expected[{writer, event.item}] =
                static_cast<int>(previous.txns.size());
          }
        }
        break;
      case ProtocolEventKind::kReaderReleaseArrived:
        ++arrived[{event.txn, event.item}];
        break;
      case ProtocolEventKind::kWriterUpdateReleased: {
        const auto need = expected.find({event.txn, event.item});
        if (need == expected.end()) break;  // no preceding read group
        const auto have = arrived.find({event.txn, event.item});
        const int got = have == arrived.end() ? 0 : have->second;
        if (got < need->second) {
          Explain(explanation,
                  "writer released its update after " + std::to_string(got) +
                      "/" + std::to_string(need->second) +
                      " reader releases at " + Describe(event));
          return false;
        }
        break;
      }
      default:
        break;
    }
  }
  return true;
}

bool CheckLeaseCoherence(const std::vector<ProtocolEvent>& events,
                         std::string* explanation) {
  // Per-item replay of the lease state machine as the *events* describe it.
  struct ItemState {
    SiteId writer = -1;
    std::vector<SiteId> readers;          // unsorted, tiny
    std::vector<SiteId> revoking;         // sites with an outstanding revoke
  };
  auto contains = [](const std::vector<SiteId>& v, SiteId s) {
    for (SiteId x : v) {
      if (x == s) return true;
    }
    return false;
  };
  auto erase = [](std::vector<SiteId>& v, SiteId s) {
    for (size_t i = 0; i < v.size(); ++i) {
      if (v[i] == s) {
        v.erase(v.begin() + static_cast<long>(i));
        return;
      }
    }
  };
  std::map<ItemId, ItemState> items;
  for (const ProtocolEvent& event : events) {
    switch (event.kind) {
      case ProtocolEventKind::kLeaseGranted: {
        ItemState& state = items[event.item];
        if (!state.revoking.empty()) {
          Explain(explanation,
                  "lease granted while a revoke is outstanding at " +
                      Describe(event));
          return false;
        }
        if (state.writer >= 0 && state.writer != event.site) {
          Explain(explanation,
                  "lease granted alongside a foreign write lease at " +
                      Describe(event));
          return false;
        }
        if (event.flag) {  // exclusive
          for (SiteId reader : state.readers) {
            if (reader != event.site) {
              Explain(explanation,
                      "write lease granted alongside a foreign read lease "
                      "at " + Describe(event));
              return false;
            }
          }
          erase(state.readers, event.site);
          state.writer = event.site;
        } else if (state.writer != event.site &&
                   !contains(state.readers, event.site)) {
          state.readers.push_back(event.site);
        }
        break;
      }
      case ProtocolEventKind::kLeaseRevoked: {
        ItemState& state = items[event.item];
        if (state.writer != event.site &&
            !contains(state.readers, event.site)) {
          Explain(explanation,
                  "revoke sent to a site holding no lease at " +
                      Describe(event));
          return false;
        }
        if (!contains(state.revoking, event.site)) {
          state.revoking.push_back(event.site);
        }
        break;
      }
      case ProtocolEventKind::kLeaseReleased: {
        ItemState& state = items[event.item];
        if (state.writer == event.site) state.writer = -1;
        erase(state.readers, event.site);
        erase(state.revoking, event.site);
        break;
      }
      default:
        break;
    }
  }
  return true;
}

bool CheckProtocolInvariants(const std::vector<ProtocolEvent>& events,
                             std::string* explanation) {
  return CheckAcyclicity(events, explanation) &&
         CheckForwardListOrderConsistency(events, explanation) &&
         CheckMr1wDiscipline(events, explanation) &&
         CheckLeaseCoherence(events, explanation);
}

}  // namespace gtpl::proto
