#include "e2e/percentile.h"

#include <algorithm>
#include <cstdio>

#include "util/stats.h"

namespace dcs::e2e {

TailSummary Summarize(const std::vector<double>& samples, double p) {
  TailSummary summary;
  summary.samples = static_cast<int64_t>(samples.size());
  summary.p = p;
  summary.median = Percentile(samples, 50);
  const double tail = Percentile(samples, p);
  summary.beyond = static_cast<int64_t>(
      std::count_if(samples.begin(), samples.end(),
                    [tail](double value) { return value > tail; }));
  if (summary.beyond >= kMinBeyond) {
    summary.tail = tail;
  } else {
    summary.reason = "only " + std::to_string(summary.beyond) + " of " +
                     std::to_string(summary.samples) +
                     " samples lie beyond the percentile; at least " +
                     std::to_string(kMinBeyond) + " are needed";
  }
  return summary;
}

JsonValue ToJson(const TailSummary& summary) {
  char key[32];
  std::snprintf(key, sizeof(key), "p%g", summary.p);
  JsonValue json = JsonValue::MakeObject();
  json.Set("samples", summary.samples);
  json.Set("p50", summary.median);
  json.Set(key, summary.tail ? JsonValue(*summary.tail) : JsonValue());
  json.Set("beyond", summary.beyond);
  if (!summary.tail) json.Set("reason", summary.reason);
  return json;
}

}  // namespace dcs::e2e
