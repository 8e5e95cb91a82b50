#include "e2e/trace.h"

#include <chrono>
#include <cstdio>

#include "util/json.h"

namespace dcs::e2e {
namespace {

int ThreadNumber() {
  static std::atomic<int> next{1};
  thread_local const int number = next.fetch_add(1);
  return number;
}

}  // namespace

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

void Trace::Record(Span span) {
  span.tid = ThreadNumber();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

Status Trace::WriteChromeTrace(const std::string& path) const {
  JsonValue events = JsonValue::MakeArray();
  for (const Span& span : spans_) {
    JsonValue event = JsonValue::MakeObject();
    event.Set("name", span.name);
    event.Set("ph", "X");
    event.Set("ts", static_cast<double>(span.start_ns) / 1e3);
    event.Set("dur", span.duration_us());
    event.Set("pid", 1);
    event.Set("tid", span.tid);
    JsonValue args = JsonValue::MakeObject();
    args.Set("id", span.id);
    args.Set("parent", span.parent);
    args.Set("request", span.request);
    event.Set("args", std::move(args));
    events.Append(std::move(event));
  }
  JsonValue root = JsonValue::MakeObject();
  root.Set("traceEvents", std::move(events));
  root.Set("displayTimeUnit", "ns");
  const std::string text = root.Dump() + "\n";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return UnavailableError("cannot write " + path);
  const bool written =
      std::fwrite(text.data(), 1, text.size(), out) == text.size();
  if (std::fclose(out) != 0 || !written) {
    return UnavailableError("failed to write " + path);
  }
  return OkStatus();
}

}  // namespace dcs::e2e
