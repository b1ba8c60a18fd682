// Unit tests of the observability substrate: the Tracer sink, event-kind
// wire names, and the JSONL / Chrome exporters (round-trip through the
// strict JSONL reader, and byte equality with a printf-based reference
// writer over extreme field values).

#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace gtpl::obs {
namespace {

TEST(TracerTest, DisabledIsNoOp) {
  Tracer tracer;
  TraceEvent event;
  event.kind = EventKind::kTxnBegin;
  tracer.Emit(event);
  EXPECT_FALSE(tracer.enabled());
  EXPECT_TRUE(tracer.events().empty());
}

TEST(TracerTest, StampsSeqAndSimTime) {
  sim::Simulator sim;
  Tracer tracer;
  tracer.Attach(&sim);
  tracer.Enable();
  sim.Schedule(7, [&tracer] {
    TraceEvent event;
    event.kind = EventKind::kLockRequest;
    event.txn = 3;
    tracer.Emit(std::move(event));
  });
  sim.Schedule(7, [&tracer] {
    TraceEvent event;
    event.kind = EventKind::kLockGrant;
    event.txn = 3;
    tracer.Emit(std::move(event));
  });
  sim.Schedule(12, [&tracer] {
    TraceEvent event;
    event.kind = EventKind::kTxnCommit;
    event.txn = 3;
    tracer.Emit(std::move(event));
  });
  sim.Run();
  ASSERT_EQ(tracer.events().size(), 3u);
  // Same-tick events keep schedule order via the seq tiebreak.
  EXPECT_EQ(tracer.events()[0].seq, 0u);
  EXPECT_EQ(tracer.events()[0].time, 7);
  EXPECT_EQ(tracer.events()[0].kind, EventKind::kLockRequest);
  EXPECT_EQ(tracer.events()[1].seq, 1u);
  EXPECT_EQ(tracer.events()[1].time, 7);
  EXPECT_EQ(tracer.events()[2].seq, 2u);
  EXPECT_EQ(tracer.events()[2].time, 12);

  const std::vector<TraceEvent> taken = tracer.Take();
  EXPECT_EQ(taken.size(), 3u);
  EXPECT_TRUE(tracer.events().empty());
}

TEST(EventKindTest, NamesRoundTrip) {
  for (int i = 0; i <= static_cast<int>(EventKind::kLeaseRelease); ++i) {
    const auto kind = static_cast<EventKind>(i);
    EventKind parsed;
    ASSERT_TRUE(ParseEventKind(ToString(kind), &parsed)) << ToString(kind);
    EXPECT_EQ(parsed, kind);
  }
  EventKind parsed;
  EXPECT_FALSE(ParseEventKind("not_a_kind", &parsed));
  EXPECT_FALSE(ParseEventKind("", &parsed));
}

std::vector<TraceEvent> SampleEvents() {
  std::vector<TraceEvent> events;
  TraceEvent begin;
  begin.seq = 0;
  begin.time = 5;
  begin.kind = EventKind::kTxnBegin;
  begin.txn = 1;
  begin.site = 2;
  begin.payload = 4;
  events.push_back(begin);

  TraceEvent window;
  window.seq = 1;
  window.time = 505;
  window.kind = EventKind::kWindowDispatch;
  window.item = 9;
  window.shard = 1;
  window.payload = 3;
  window.label = "dispatch";
  FlEntrySnapshot writer;
  writer.is_read_group = false;
  writer.txns = {1};
  FlEntrySnapshot readers;
  readers.is_read_group = true;
  readers.txns = {2, 5, 7};
  window.entries = {writer, readers};
  events.push_back(window);

  TraceEvent commit;
  commit.seq = 2;
  commit.time = 2005;
  commit.kind = EventKind::kTxnCommit;
  commit.txn = 1;
  commit.site = 2;
  commit.mode = 1;
  commit.flag = true;
  commit.payload = 2000;
  commit.d0 = 900;
  commit.d1 = 1000;
  commit.d2 = 50;
  commit.d3 = 40;
  commit.d4 = 10;
  commit.label = "with \"quotes\" and \\slashes\\";
  events.push_back(commit);
  return events;
}

TEST(ExportTest, JsonlRoundTrip) {
  const std::vector<TraceEvent> events = SampleEvents();
  const std::string jsonl = ToJsonl(events);
  std::istringstream in(jsonl);
  std::vector<TraceEvent> parsed;
  std::string error;
  ASSERT_TRUE(ReadJsonl(in, &parsed, &error)) << error;
  EXPECT_EQ(parsed, events);
}

TEST(ExportTest, JsonlRejectsGarbage) {
  std::istringstream in("{\"seq\":0,\"t\":1,\"kind\":\"no_such_kind\"}\n");
  std::vector<TraceEvent> parsed;
  std::string error;
  EXPECT_FALSE(ReadJsonl(in, &parsed, &error));
  EXPECT_FALSE(error.empty());

  std::istringstream truncated("{\"seq\":0,\"t\":1");
  parsed.clear();
  EXPECT_FALSE(ReadJsonl(truncated, &parsed, &error));
}

// One serialized line for a minimal event stamped (time, seq).
std::string Line(SimTime time, uint64_t seq) {
  TraceEvent event;
  event.seq = seq;
  event.time = time;
  event.kind = EventKind::kTxnBegin;
  event.txn = 1;
  return ToJsonl({event});
}

TEST(ExportTest, JsonlRejectsOutOfOrderTime) {
  std::istringstream in(Line(10, 0) + Line(5, 1));
  std::vector<TraceEvent> parsed;
  std::string error;
  EXPECT_FALSE(ReadJsonl(in, &parsed, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("out-of-order or duplicate"), std::string::npos)
      << error;
}

TEST(ExportTest, JsonlRejectsDuplicateTimeSeq) {
  std::istringstream in(Line(10, 3) + Line(10, 3));
  std::vector<TraceEvent> parsed;
  std::string error;
  EXPECT_FALSE(ReadJsonl(in, &parsed, &error));
  EXPECT_NE(error.find("out-of-order or duplicate"), std::string::npos)
      << error;
}

TEST(ExportTest, JsonlAcceptsSameTickSeqTiebreak) {
  std::istringstream in(Line(10, 0) + Line(10, 1) + Line(11, 2));
  std::vector<TraceEvent> parsed;
  std::string error;
  EXPECT_TRUE(ReadJsonl(in, &parsed, &error)) << error;
  EXPECT_EQ(parsed.size(), 3u);
}

TEST(ExportTest, JsonlErrorsNameTheLine) {
  // A valid first line, then a truncated second line: the diagnostic must
  // point at line 2.
  std::istringstream in(Line(5, 0) + "{\"seq\":1,\"t\":30");
  std::vector<TraceEvent> parsed;
  std::string error;
  EXPECT_FALSE(ReadJsonl(in, &parsed, &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(ExportTest, JsonlRejectsBadEscape) {
  // A \u escape cut short inside the label string.
  std::string line = Line(5, 0);
  const std::string needle = "\"label\":\"\"";
  const size_t at = line.find(needle);
  if (at != std::string::npos) {
    line.replace(at, needle.size(), "\"label\":\"\\u12\"");
  } else {
    line = "{\"seq\":0,\"t\":5,\"kind\":\"txn_begin\",\"label\":\"\\u12\"}\n";
  }
  std::istringstream in(line);
  std::vector<TraceEvent> parsed;
  std::string error;
  EXPECT_FALSE(ReadJsonl(in, &parsed, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

// Numbers that do not fit the field they are read into. Each must fail the
// line with a diagnostic, not throw out of the reader.
TEST(ExportTest, JsonlRejectsOutOfRangeNumbers) {
  const std::pair<std::string, std::string> cases[] = {
      {"\"seq\":0,", "\"seq\":99999999999999999999,"},
      {"\"seq\":0,", "\"seq\":-1,"},
      {"\"t\":5,", "\"t\":9223372036854775808,"},
      {"\"site\":-1,", "\"site\":2147483648,"},
      {"\"item\":-1,", "\"item\":-2147483649,"},
      {"\"mode\":-1,", "\"mode\":4294967295,"},
      {"\"d4\":0,", "\"d4\":-,"},
  };
  for (const auto& [from, to] : cases) {
    std::string line = Line(5, 0);
    const size_t at = line.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    line.replace(at, from.size(), to);
    std::istringstream in(line);
    std::vector<TraceEvent> parsed;
    std::string error;
    EXPECT_FALSE(ReadJsonl(in, &parsed, &error)) << to;
    EXPECT_NE(error.find("line 1"), std::string::npos) << to << ": " << error;
  }
}

// A \u escape is exactly four hex digits naming one byte.
TEST(ExportTest, JsonlRejectsNonHexEscape) {
  for (const char* escape :
       {"\\uZZZZ", "\\u00g1", "\\u+041", "\\u-041", "\\u 041", "\\u0141"}) {
    std::string line = Line(5, 0);
    const std::string needle = "\"label\":\"\"";
    const size_t at = line.find(needle);
    ASSERT_NE(at, std::string::npos);
    line.replace(at, needle.size(),
                 std::string("\"label\":\"") + escape + "\"");
    std::istringstream in(line);
    std::vector<TraceEvent> parsed;
    std::string error;
    EXPECT_FALSE(ReadJsonl(in, &parsed, &error)) << escape;
    EXPECT_NE(error.find("line 1"), std::string::npos)
        << escape << ": " << error;
  }
  // The writer's own escape of a control byte still reads back.
  TraceEvent event;
  event.label = "a\x1f";
  std::istringstream in(ToJsonl({event}));
  std::vector<TraceEvent> parsed;
  std::string error;
  ASSERT_TRUE(ReadJsonl(in, &parsed, &error)) << error;
  EXPECT_EQ(parsed.at(0).label, "a\x1f");
}

TEST(ExportTest, JsonlIsOneObjectPerLine) {
  const std::string jsonl = ToJsonl(SampleEvents());
  size_t lines = 0;
  for (char c : jsonl) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 3u);
  EXPECT_EQ(jsonl.back(), '\n');
}

// The printf-based JSONL writer that AppendEventJsonl replaced, kept as the
// byte-for-byte reference for the to_chars writer.
void ReferenceAppendEscaped(const std::string& text, std::string* out) {
  for (char c : text) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void ReferenceAppendEventJsonl(const TraceEvent& e, std::string* out) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"seq\":%llu,\"t\":%lld,\"kind\":\"%s\",\"txn\":%lld,\"site\":%d,"
      "\"peer\":%d,\"item\":%d,\"shard\":%d,\"mode\":%d,\"flag\":%d,"
      "\"payload\":%lld,\"d0\":%lld,\"d1\":%lld,\"d2\":%lld,\"d3\":%lld,"
      "\"d4\":%lld,\"label\":\"",
      static_cast<unsigned long long>(e.seq),
      static_cast<long long>(e.time), ToString(e.kind),
      static_cast<long long>(e.txn), e.site, e.peer, e.item, e.shard, e.mode,
      e.flag ? 1 : 0, static_cast<long long>(e.payload),
      static_cast<long long>(e.d0), static_cast<long long>(e.d1),
      static_cast<long long>(e.d2), static_cast<long long>(e.d3),
      static_cast<long long>(e.d4));
  *out += buf;
  ReferenceAppendEscaped(e.label, out);
  *out += '"';
  if (!e.entries.empty()) {
    *out += ",\"fl\":[";
    for (size_t i = 0; i < e.entries.size(); ++i) {
      if (i > 0) *out += ',';
      const FlEntrySnapshot& entry = e.entries[i];
      *out += entry.is_read_group ? "{\"rg\":1,\"txns\":["
                                  : "{\"rg\":0,\"txns\":[";
      for (size_t j = 0; j < entry.txns.size(); ++j) {
        if (j > 0) *out += ',';
        *out += std::to_string(entry.txns[j]);
      }
      *out += "]}";
    }
    *out += ']';
  }
  *out += "}\n";
}

/// Seeded events over every kind whose fields mix 0, +-1, the type limits
/// and random values, with labels full of bytes that need escaping.
class ExtremeEvents {
 public:
  explicit ExtremeEvents(uint64_t seed) : rng_(seed) {}

  int64_t Int64() {
    constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    switch (rng_() % 8) {
      case 0: return 0;
      case 1: return 1;
      case 2: return -1;
      case 3: return kMin;
      case 4: return kMax;
      case 5: return std::numeric_limits<int32_t>::min();
      case 6: return std::numeric_limits<int32_t>::max();
      default: return static_cast<int64_t>(rng_());
    }
  }

  int32_t Int32() {
    switch (rng_() % 6) {
      case 0: return 0;
      case 1: return 1;
      case 2: return -1;
      case 3: return std::numeric_limits<int32_t>::min();
      case 4: return std::numeric_limits<int32_t>::max();
      default: return static_cast<int32_t>(rng_());
    }
  }

  uint64_t Seq() {
    switch (rng_() % 4) {
      case 0: return 0;
      case 1: return 1;
      case 2: return std::numeric_limits<uint64_t>::max();
      default: return rng_();
    }
  }

  std::string Label() {
    std::string control;
    for (char c = 0x01; c < 0x20; ++c) control += c;
    switch (rng_() % 6) {
      case 0: return "";
      case 1: return "\"quoted\" \\back\\slashed\\";
      case 2: return control;
      case 3: return "\x80\xff caf\xc3\xa9 \xe2\x82\xac";
      case 4: return "msg:lock-request";
      default: {
        std::string text(rng_() % 48, ' ');
        for (char& c : text) c = static_cast<char>(rng_() % 256);
        return text;
      }
    }
  }

  std::vector<FlEntrySnapshot> Entries() {
    std::vector<FlEntrySnapshot> entries(rng_() % 5);
    for (FlEntrySnapshot& entry : entries) {
      entry.is_read_group = rng_() % 2 == 0;
      entry.txns.resize(rng_() % 5);  // empty groups included
      for (TxnId& txn : entry.txns) txn = Int64();
    }
    return entries;
  }

  TraceEvent Random(EventKind kind) {
    TraceEvent e;
    e.seq = Seq();
    e.time = Int64();
    e.kind = kind;
    e.txn = Int64();
    e.site = Int32();
    e.peer = Int32();
    e.item = Int32();
    e.shard = Int32();
    e.mode = Int32();
    e.flag = rng_() % 2 == 0;
    e.payload = Int64();
    e.d0 = Int64();
    e.d1 = Int64();
    e.d2 = Int64();
    e.d3 = Int64();
    e.d4 = Int64();
    e.label = Label();
    e.entries = Entries();
    return e;
  }

 private:
  std::mt19937_64 rng_;
};

/// `kind` with every integer field at `wide64` / `wide32`: the widest lines
/// the writer can produce when the values are the type minimums.
TraceEvent Uniform(EventKind kind, uint64_t seq, int64_t wide64,
                   int32_t wide32) {
  TraceEvent e;
  e.seq = seq;
  e.time = wide64;
  e.kind = kind;
  e.txn = wide64;
  e.site = e.peer = e.item = e.shard = e.mode = wide32;
  e.flag = true;
  e.payload = e.d0 = e.d1 = e.d2 = e.d3 = e.d4 = wide64;
  e.label = "\\";
  e.entries = {{true, {wide64, wide64}}, {false, {}}};
  return e;
}

TEST(ExportTest, JsonlMatchesPrintfReference) {
  std::vector<TraceEvent> events;
  ExtremeEvents gen(20261017);
  for (int k = 0; k <= static_cast<int>(EventKind::kLeaseRelease); ++k) {
    const auto kind = static_cast<EventKind>(k);
    events.push_back(Uniform(kind, std::numeric_limits<uint64_t>::max(),
                             std::numeric_limits<int64_t>::min(),
                             std::numeric_limits<int32_t>::min()));
    events.push_back(Uniform(kind, std::numeric_limits<uint64_t>::max(),
                             std::numeric_limits<int64_t>::max(),
                             std::numeric_limits<int32_t>::max()));
    events.push_back(Uniform(kind, 0, 0, 0));
    events.push_back(Uniform(kind, 1, -1, -1));
    for (int i = 0; i < 200; ++i) events.push_back(gen.Random(kind));
  }
  std::string stream;
  std::string expected_stream;
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    std::string line;
    AppendEventJsonl(e, &line);
    std::string expected;
    ReferenceAppendEventJsonl(e, &expected);
    ASSERT_EQ(line, expected) << "event " << i;

    std::istringstream in(line);
    std::vector<TraceEvent> parsed;
    std::string error;
    ASSERT_TRUE(ReadJsonl(in, &parsed, &error)) << "event " << i << ": "
                                                << error;
    ASSERT_EQ(parsed.size(), 1u) << "event " << i;
    ASSERT_EQ(parsed[0], e) << "event " << i << ": " << line;

    // Appending to a non-empty string keeps what is already there.
    AppendEventJsonl(e, &stream);
    expected_stream += expected;
  }
  EXPECT_EQ(stream, expected_stream);
}

TEST(ExportTest, ChromeTraceSmoke) {
  std::ostringstream out;
  WriteChromeTrace(SampleEvents(), out);
  const std::string json = out.str();
  // A JSON array with a complete slice ("ph":"X") for the committed txn and
  // instant events for the rest.
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("txn 1"), std::string::npos);
}

TEST(ExportTest, ChromeTraceCountsDroppedTransportEvents) {
  std::vector<TraceEvent> events = SampleEvents();
  TraceEvent send;
  send.seq = 3;
  send.time = 2100;
  send.kind = EventKind::kMsgSend;
  send.site = 0;
  events.push_back(send);
  TraceEvent deliver = send;
  deliver.seq = 4;
  deliver.time = 2600;
  deliver.kind = EventKind::kMsgDeliver;
  deliver.site = 1;
  events.push_back(deliver);

  std::ostringstream out;
  WriteChromeTrace(events, out);
  const std::string json = out.str();
  // Transport events are omitted from the viewer, but never silently: a
  // metadata event carries the dropped count.
  EXPECT_EQ(json.find("msg_send"), std::string::npos);
  EXPECT_EQ(json.find("msg_deliver"), std::string::npos);
  EXPECT_NE(json.find("transport events omitted"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_msg_events\":2"), std::string::npos);
}

TEST(ExportTest, ChromeTraceNoMetadataWhenNothingDropped) {
  std::ostringstream out;
  WriteChromeTrace(SampleEvents(), out);
  EXPECT_EQ(out.str().find("transport events omitted"), std::string::npos);
}

}  // namespace
}  // namespace gtpl::obs
