// trace.h — in-memory spans recorded around calls into the library, and
// their export as Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// A span has a name ("<module>.<what>"), start and end on the benchmark's
// monotonic clock, the index of the span that caused it, the id every span
// of one request or frame shares, and the recording thread. Spans stay in
// memory until the run ends; nothing is written while the clock runs.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct Span {
  std::string name;
  Ns start = 0;
  Ns end = 0;
  int parent = -1;        // index into the tracer's spans, -1 = root
  std::uint64_t id = 0;   // request/frame id (0 = set-up work)
  int tid = 0;            // see thread_slot()
};

// Aggregate self time of every span with one name: its duration minus the
// part of it that its child spans cover.
struct SelfTime {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

// A small dense id for the calling thread (0, 1, 2, ... in first-use order),
// used as the trace's tid.
int thread_slot();

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  // Appends a span (thread-safe) and returns its index, or -1 when tracing
  // is off. `tid` < 0 means the calling thread.
  int add(std::string name, Ns start, Ns end, int parent = -1,
          std::uint64_t id = 0, int tid = -1);

  // Names a thread slot in the exported trace.
  void name_thread(int tid, std::string name);

  // Read only after every recording thread has been joined.
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  [[nodiscard]] std::vector<SelfTime> self_times() const;

  // Writes {"traceEvents": [...], "otherData": {...}}; returns false when
  // the file cannot be written.
  bool write_chrome_json(const std::string& path,
                         const std::map<std::string, std::string>& meta) const;

 private:
  bool enabled_;
  std::mutex mu_;
  std::vector<Span> spans_;
  std::map<int, std::string> thread_names_;
};

// Self times from a span list (exposed for tests).
std::vector<SelfTime> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
