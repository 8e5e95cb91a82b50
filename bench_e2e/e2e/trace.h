// In-memory spans for bench_e2e's --trace run.
//
// A span is one call into a layer, recorded from the benchmark's own code
// around the library's public function: a name whose prefix before the
// first '.' is the layer (module) it times, start and end on the steady
// clock, its own id, the id of the span that caused it, and the request id
// every span of one request shares. Recording is two clock reads and one
// push_back under a mutex; nothing touches the disk until WriteChromeTrace,
// which emits Chrome trace-event JSON (open it in chrome://tracing).

#ifndef DCS_BENCH_E2E_TRACE_H_
#define DCS_BENCH_E2E_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace dcs::e2e {

// Nanoseconds on the steady clock since the first call in this process.
int64_t NowNs();

struct Span {
  const char* name = "";  // a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t id = 0;
  int64_t parent = 0;   // 0 = a root span
  int64_t request = 0;  // shared by every span of one request
  int tid = 0;          // small per-thread number, set by Trace::Record

  double duration_us() const {
    return static_cast<double>(end_ns - start_ns) / 1e3;
  }
};

class Trace {
 public:
  Trace() = default;
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  int64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  // Stores a finished span, stamped with the calling thread's number.
  void Record(Span span);

  // Every recorded span. Call once the recording threads have joined.
  const std::vector<Span>& spans() const { return spans_; }

  // Writes {"traceEvents": [...]} with one complete ("X") event per span;
  // each event's args carry id, parent and request.
  Status WriteChromeTrace(const std::string& path) const;

 private:
  std::atomic<int64_t> next_id_{1};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

// Runs fn() as one stage of a request. Traced (trace non-null), it records
// a span and adds the stage's duration to sum_us; untraced, it only makes
// the call, so the timed and the traced paths share one body.
template <typename Fn>
auto Stage(Trace* trace, const char* name, int64_t parent, int64_t request,
           double& sum_us, Fn&& fn) {
  if (trace == nullptr) return fn();
  const int64_t start = NowNs();
  auto result = fn();
  const int64_t end = NowNs();
  trace->Record({name, start, end, trace->NewId(), parent, request});
  sum_us += static_cast<double>(end - start) / 1e3;
  return result;
}

}  // namespace dcs::e2e

#endif  // DCS_BENCH_E2E_TRACE_H_
