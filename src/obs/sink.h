#ifndef GTPL_OBS_SINK_H_
#define GTPL_OBS_SINK_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/trace.h"

namespace gtpl::obs {

/// Bounded-memory chunked JSONL writer (DESIGN.md §16). Each appended event
/// is serialized with the same AppendEventJsonl call the buffered path uses,
/// so a streamed file is byte-identical to the post-hoc WriteJsonl of the
/// same event sequence — by construction, not by test alone (the test pins
/// it anyway).
///
/// Memory bound: the chunk buffer is flushed BEFORE an append would push it
/// past the watermark, so peak buffer occupancy never exceeds
/// max(watermark, longest single line). peak_buffer_bytes() reports the
/// observed peak for the acceptance check.
class StreamSink : public TraceSink {
 public:
  /// Opens `path` for writing (truncating). `flush_bytes` is the chunk
  /// watermark; values < 1 are clamped to 1 (flush every event).
  StreamSink(const std::string& path, int64_t flush_bytes);
  ~StreamSink() override;

  StreamSink(const StreamSink&) = delete;
  StreamSink& operator=(const StreamSink&) = delete;

  void Append(const TraceEvent& event) override;
  void Flush() override;

  /// False once the file failed to open or any flushed chunk failed to
  /// write.
  bool ok() const { return ok_; }
  int64_t bytes_written() const { return bytes_written_; }
  int64_t peak_buffer_bytes() const { return peak_buffer_; }

 private:
  std::ofstream out_;
  bool ok_ = false;
  int64_t watermark_;
  int64_t bytes_written_ = 0;
  int64_t peak_buffer_ = 0;
  std::string buffer_;
  std::string line_;  // the event being appended; reused across events
};

/// Deterministic k-way merge of per-LP trace streams (DESIGN.md §16).
///
/// The parallel engine gives every LP its own Tracer (stamped with the LP's
/// local clock and a dense per-LP seq). At each window barrier the kernel
/// guarantees that every event with time < horizon has executed on every LP
/// and that no future event can be stamped below the horizon, so the merger
/// can irrevocably drain each tracer's prefix below the horizon and order
/// the union by (time, lp, per-LP seq) — exactly the kernel's deterministic
/// channel order. Merged events are re-stamped with a dense global seq, so
/// the output is indistinguishable in shape from a serial trace (and
/// byte-identical at any thread count, since barrier state is
/// thread-count-invariant).
class TraceMerger {
 public:
  /// `lps` must outlive the merger; one tracer per LP, in LP order.
  explicit TraceMerger(std::vector<Tracer*> lps) : lps_(std::move(lps)) {}

  /// Routes merged events to `sink` instead of the in-memory buffer.
  void SetSink(TraceSink* sink) { sink_ = sink; }

  /// Drains every LP's events with time < `bound`, merges them into the
  /// global order, and appends them to the sink or the buffer. Safe to call
  /// only from the barrier (single-threaded, all LPs quiescent).
  void Flush(SimTime bound);

  /// Final drain: merges everything still buffered in the LP tracers.
  void FlushAll();

  /// Moves the merged in-memory events out (empty when a sink is set).
  std::vector<TraceEvent> Take() {
    std::vector<TraceEvent> out = std::move(merged_);
    merged_.clear();
    return out;
  }

  uint64_t merged_count() const { return next_global_seq_; }

 private:
  void MergeChunks(std::vector<std::vector<TraceEvent>> chunks);

  std::vector<Tracer*> lps_;
  TraceSink* sink_ = nullptr;
  uint64_t next_global_seq_ = 0;
  std::vector<TraceEvent> merged_;
};

}  // namespace gtpl::obs

#endif  // GTPL_OBS_SINK_H_
