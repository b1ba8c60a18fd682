#include "obs/sink.h"

#include <utility>

#include "obs/export.h"

namespace gtpl::obs {

StreamSink::StreamSink(const std::string& path, int64_t flush_bytes)
    : out_(path, std::ios::binary | std::ios::trunc),
      watermark_(flush_bytes < 1 ? 1 : flush_bytes) {
  ok_ = out_.good();
  buffer_.reserve(static_cast<size_t>(watermark_) + 256);
}

StreamSink::~StreamSink() { Flush(); }

void StreamSink::Append(const TraceEvent& event) {
  // Serialize the line first so the flush-before-append decision sees its
  // exact size; flushing early keeps the buffer under the watermark. The
  // line buffer keeps its capacity, so a steady stream allocates nothing.
  line_.clear();
  AppendEventJsonl(event, &line_);
  if (!buffer_.empty() &&
      static_cast<int64_t>(buffer_.size() + line_.size()) > watermark_) {
    Flush();
  }
  buffer_ += line_;
  if (static_cast<int64_t>(buffer_.size()) > peak_buffer_) {
    peak_buffer_ = static_cast<int64_t>(buffer_.size());
  }
  if (static_cast<int64_t>(buffer_.size()) >= watermark_) Flush();
}

void StreamSink::Flush() {
  if (buffer_.empty()) return;
  // Flushing the stream too makes a failed write (a full disk) show in
  // ok() as soon as this returns, not only when the file closes.
  out_.write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
  out_.flush();
  ok_ = ok_ && out_.good();
  bytes_written_ += static_cast<int64_t>(buffer_.size());
  buffer_.clear();
}

void TraceMerger::Flush(SimTime bound) {
  std::vector<std::vector<TraceEvent>> chunks;
  chunks.reserve(lps_.size());
  for (Tracer* lp : lps_) chunks.push_back(lp->TakeBelow(bound));
  MergeChunks(std::move(chunks));
}

void TraceMerger::FlushAll() {
  std::vector<std::vector<TraceEvent>> chunks;
  chunks.reserve(lps_.size());
  for (Tracer* lp : lps_) chunks.push_back(lp->Take());
  MergeChunks(std::move(chunks));
}

void TraceMerger::MergeChunks(std::vector<std::vector<TraceEvent>> chunks) {
  // K-way merge by (time, lp, per-LP seq). Each chunk is already sorted by
  // (time, seq) — per-LP streams are time-monotone with dense seq — so a
  // linear front scan suffices; k is the shard count, which is small. Ties
  // on time resolve to the lowest LP because only a strictly smaller time
  // steals the front slot from an earlier LP.
  std::vector<size_t> pos(chunks.size(), 0);
  for (;;) {
    int best = -1;
    for (size_t i = 0; i < chunks.size(); ++i) {
      if (pos[i] >= chunks[i].size()) continue;
      if (best < 0 || chunks[i][pos[i]].time < chunks[best][pos[best]].time) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    TraceEvent e = std::move(chunks[best][pos[best]]);
    ++pos[best];
    e.seq = next_global_seq_++;
    if (sink_ != nullptr) {
      sink_->Append(e);
    } else {
      merged_.push_back(std::move(e));
    }
  }
}

}  // namespace gtpl::obs
