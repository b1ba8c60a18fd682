#include "obs/export.h"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <unordered_map>

namespace gtpl::obs {
namespace {

/// Appends `text` as the body of a JSON string. Runs of bytes that need no
/// escaping go out in one append; bytes >= 0x80 pass through unchanged.
void AppendEscaped(const std::string& text, std::string* out) {
  size_t run = 0;  // first byte of the pending unescaped run
  for (size_t i = 0; i < text.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(text, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        *out += buf;
      }
    }
  }
  out->append(text, run, text.size() - run);
}

/// Widest decimal text of the integer types `T...` together: every digit
/// of each type's extreme value, plus a sign for signed types.
template <typename... T>
constexpr size_t MaxChars() {
  return ((std::numeric_limits<T>::digits10 + 1 + std::is_signed_v<T>) + ...);
}

/// Longest EventKind wire name ("window_dispatch").
constexpr size_t kMaxKindChars = 15;
/// Every key fragment AppendEventJsonl copies before the label text.
constexpr std::string_view kFixedKeys =
    "{\"seq\":,\"t\":,\"kind\":\"\",\"txn\":,\"site\":,\"peer\":,\"item\":,"
    "\"shard\":,\"mode\":,\"flag\":,\"payload\":,\"d0\":,\"d1\":,\"d2\":,"
    "\"d3\":,\"d4\":,\"label\":\"";
/// Worst-case length of a line's fixed part: the keys, the longest kind
/// name, the one-digit flag and every integer field at its widest.
using E = TraceEvent;
constexpr size_t kMaxFixedChars =
    kFixedKeys.size() + kMaxKindChars + 1 +
    MaxChars<decltype(E::seq), decltype(E::time), decltype(E::txn),
             decltype(E::site), decltype(E::peer), decltype(E::item),
             decltype(E::shard), decltype(E::mode), decltype(E::payload),
             decltype(E::d0), decltype(E::d1), decltype(E::d2),
             decltype(E::d3), decltype(E::d4)>();

/// Writes a line's fixed part into a stack buffer sized for the worst case.
class FixedWriter {
 public:
  void Text(std::string_view text) {
    std::memcpy(end_, text.data(), text.size());
    end_ += text.size();
  }
  template <typename T>
  void Int(T value) {
    end_ = std::to_chars(end_, buf_ + sizeof(buf_), value).ptr;
  }
  void AppendTo(std::string* out) const {
    out->append(buf_, static_cast<size_t>(end_ - buf_));
  }

 private:
  char buf_[kMaxFixedChars];
  char* end_ = buf_;
};

}  // namespace

void AppendEventJsonl(const TraceEvent& e, std::string* out) {
  FixedWriter w;
  w.Text("{\"seq\":");
  w.Int(e.seq);
  w.Text(",\"t\":");
  w.Int(e.time);
  w.Text(",\"kind\":\"");
  w.Text(ToString(e.kind));
  w.Text("\",\"txn\":");
  w.Int(e.txn);
  w.Text(",\"site\":");
  w.Int(e.site);
  w.Text(",\"peer\":");
  w.Int(e.peer);
  w.Text(",\"item\":");
  w.Int(e.item);
  w.Text(",\"shard\":");
  w.Int(e.shard);
  w.Text(",\"mode\":");
  w.Int(e.mode);
  w.Text(",\"flag\":");
  w.Int(e.flag ? 1 : 0);
  w.Text(",\"payload\":");
  w.Int(e.payload);
  w.Text(",\"d0\":");
  w.Int(e.d0);
  w.Text(",\"d1\":");
  w.Int(e.d1);
  w.Text(",\"d2\":");
  w.Int(e.d2);
  w.Text(",\"d3\":");
  w.Int(e.d3);
  w.Text(",\"d4\":");
  w.Int(e.d4);
  w.Text(",\"label\":\"");
  w.AppendTo(out);
  AppendEscaped(e.label, out);
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
        char id[MaxChars<TxnId>()];
        out->append(id, std::to_chars(id, id + sizeof(id), entry.txns[j]).ptr);
      }
      *out += "]}";
    }
    *out += ']';
  }
  *out += "}\n";
}

namespace {

/// Strict sequential parser for the exact shape AppendEventJsonl writes.
class LineParser {
 public:
  explicit LineParser(const std::string& line) : text_(line) {}

  bool Literal(const char* expect) {
    const size_t len = std::strlen(expect);
    if (text_.compare(pos_, len, expect) != 0) return false;
    pos_ += len;
    return true;
  }

  /// A decimal integer that fits `T`; out-of-range values are rejected.
  template <typename T>
  bool Int(T* out) {
    const char* first = text_.data() + pos_;
    const auto [end, ec] =
        std::from_chars(first, text_.data() + text_.size(), *out);
    if (ec != std::errc()) return false;
    pos_ += static_cast<size_t>(end - first);
    return true;
  }

  bool QuotedString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'u': {
            // Exactly four hex digits naming one byte: the writer escapes
            // only control characters.
            if (pos_ + 4 > text_.size()) return false;
            const char* first = text_.data() + pos_;
            unsigned code = 0;
            const auto [end, ec] = std::from_chars(first, first + 4, code, 16);
            if (ec != std::errc() || end != first + 4 || code > 0xff) {
              return false;
            }
            c = static_cast<char>(code);
            pos_ += 4;
            break;
          }
          default: c = esc;
        }
      }
      *out += c;
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool Peek(char c) const { return pos_ < text_.size() && text_[pos_] == c; }
  bool Done() const { return pos_ == text_.size(); }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

/// The optional `,"fl":[...]` forward-list snapshot of a window event.
bool ParseFl(LineParser* p, TraceEvent* e) {
  if (!p->Literal(",\"fl\":[")) return false;
  while (!p->Peek(']')) {
    FlEntrySnapshot entry;
    int64_t rg = 0;
    if (!p->Literal("{\"rg\":") || !p->Int(&rg)) return false;
    entry.is_read_group = rg != 0;
    if (!p->Literal(",\"txns\":[")) return false;
    while (!p->Peek(']')) {
      TxnId txn = 0;
      if (!p->Int(&txn)) return false;
      entry.txns.push_back(txn);
      if (p->Peek(',')) p->Literal(",");
    }
    if (!p->Literal("]}")) return false;
    e->entries.push_back(std::move(entry));
    if (p->Peek(',')) p->Literal(",");
  }
  return p->Literal("]");
}

bool ParseLine(const std::string& line, TraceEvent* e, std::string* error) {
  LineParser p(line);
  int64_t v = 0;
  std::string kind_name;
  const bool header =
      p.Literal("{\"seq\":") && p.Int(&e->seq) &&
      p.Literal(",\"t\":") && p.Int(&e->time) &&
      p.Literal(",\"kind\":") && p.QuotedString(&kind_name) &&
      p.Literal(",\"txn\":") && p.Int(&e->txn) &&
      p.Literal(",\"site\":") && p.Int(&e->site) &&
      p.Literal(",\"peer\":") && p.Int(&e->peer) &&
      p.Literal(",\"item\":") && p.Int(&e->item) &&
      p.Literal(",\"shard\":") && p.Int(&e->shard) &&
      p.Literal(",\"mode\":") && p.Int(&e->mode) &&
      p.Literal(",\"flag\":") && p.Int(&v) && ((e->flag = v != 0), true) &&
      p.Literal(",\"payload\":") && p.Int(&e->payload) &&
      p.Literal(",\"d0\":") && p.Int(&e->d0) &&
      p.Literal(",\"d1\":") && p.Int(&e->d1) &&
      p.Literal(",\"d2\":") && p.Int(&e->d2) &&
      p.Literal(",\"d3\":") && p.Int(&e->d3) &&
      p.Literal(",\"d4\":") && p.Int(&e->d4) &&
      p.Literal(",\"label\":") && p.QuotedString(&e->label);
  if (!header || !ParseEventKind(kind_name, &e->kind)) {
    if (error != nullptr) *error = "malformed event line: " + line;
    return false;
  }
  if (p.Peek(',') && !ParseFl(&p, e)) {
    if (error != nullptr) *error = "malformed fl array: " + line;
    return false;
  }
  if (!p.Literal("}") || !p.Done()) {
    if (error != nullptr) *error = "trailing garbage: " + line;
    return false;
  }
  return true;
}

}  // namespace

void WriteJsonl(const std::vector<TraceEvent>& events, std::ostream& out) {
  std::string buffer;
  buffer.reserve(events.size() * 160);
  for (const TraceEvent& e : events) AppendEventJsonl(e, &buffer);
  out << buffer;
}

std::string ToJsonl(const std::vector<TraceEvent>& events) {
  std::ostringstream out;
  WriteJsonl(events, out);
  return out.str();
}

bool ReadJsonl(std::istream& in, std::vector<TraceEvent>* events,
               std::string* error) {
  std::string line;
  int64_t line_no = 0;
  bool have_prev = false;
  SimTime prev_time = 0;
  uint64_t prev_seq = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    TraceEvent e;
    if (!ParseLine(line, &e, error)) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": " + *error;
      }
      return false;
    }
    // Every writer stamps a dense, time-monotone (time, seq) order, so the
    // pairs must be strictly increasing lexicographically; anything else is
    // a corrupted, truncated-and-rejoined, or hand-spliced file.
    if (have_prev &&
        (e.time < prev_time || (e.time == prev_time && e.seq <= prev_seq))) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) +
                 ": out-of-order or duplicate event: (t=" +
                 std::to_string(e.time) + ",seq=" + std::to_string(e.seq) +
                 ") after (t=" + std::to_string(prev_time) + ",seq=" +
                 std::to_string(prev_seq) + ")";
      }
      return false;
    }
    have_prev = true;
    prev_time = e.time;
    prev_seq = e.seq;
    events->push_back(std::move(e));
  }
  return true;
}

void WriteChromeTrace(const std::vector<TraceEvent>& events,
                      std::ostream& out) {
  // Transactions render as complete slices on their client's track; the
  // protocol machinery renders as instant events. Times are simulated units
  // reported as microseconds (Chrome's trace unit) — relative durations are
  // what matters.
  out << "[";
  bool first = true;
  int64_t dropped_transport = 0;
  SimTime last_time = 0;
  std::unordered_map<TxnId, SimTime> begin_time;
  auto comma = [&out, &first] {
    if (!first) out << ",\n";
    first = false;
  };
  for (const TraceEvent& e : events) {
    last_time = e.time;
    switch (e.kind) {
      case EventKind::kTxnBegin:
        begin_time[e.txn] = e.time;
        break;
      case EventKind::kTxnCommit:
      case EventKind::kTxnAbort: {
        auto it = begin_time.find(e.txn);
        if (it == begin_time.end()) break;
        comma();
        const bool commit = e.kind == EventKind::kTxnCommit;
        out << "{\"name\":\"txn " << e.txn
            << (commit ? " commit" : " abort") << "\",\"ph\":\"X\",\"ts\":"
            << it->second << ",\"dur\":" << (e.time - it->second)
            << ",\"pid\":0,\"tid\":" << e.site;
        if (commit) {
          out << ",\"args\":{\"lock_wait\":" << e.d0
              << ",\"propagation\":" << e.d1 << ",\"queueing\":" << e.d2
              << ",\"execution\":" << e.d3 << ",\"commit\":" << e.d4 << "}";
        }
        out << "}";
        begin_time.erase(it);
        break;
      }
      case EventKind::kMsgSend:
      case EventKind::kMsgDeliver:
        // Too dense for the viewer; JSONL keeps the full detail. Counted
        // (not silently cut): a metadata event announces the omission.
        ++dropped_transport;
        break;
      default: {
        comma();
        out << "{\"name\":\"" << ToString(e.kind) << "\",\"ph\":\"i\",\"ts\":"
            << e.time << ",\"pid\":0,\"tid\":" << (e.site >= 0 ? e.site : 0)
            << ",\"s\":\"t\"}";
      }
    }
  }
  if (dropped_transport > 0) {
    comma();
    out << "{\"name\":\"transport events omitted\",\"ph\":\"i\",\"ts\":"
        << last_time << ",\"pid\":0,\"tid\":0,\"s\":\"g\",\"args\":"
        << "{\"dropped_msg_events\":" << dropped_transport << "}}";
    std::fprintf(stderr,
                 "WriteChromeTrace: omitted %lld msg_send/msg_deliver events "
                 "(too dense for the viewer; the JSONL export keeps them)\n",
                 static_cast<long long>(dropped_transport));
  }
  out << "]\n";
}

}  // namespace gtpl::obs
