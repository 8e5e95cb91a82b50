#include "serve/decoder_batch.h"

#include "util/check.h"
#include "util/metrics.h"

namespace dcs {

std::vector<int8_t> DecodeForEachBits(const ForEachDecoder& decoder,
                                      const std::vector<int64_t>& qs,
                                      CutQueryService& service,
                                      CutQueryService::ObjectId object) {
  std::vector<ForEachDecoder::QueryPlan> plans;
  plans.reserve(qs.size());
  std::vector<CutQueryService::Query> batch;
  batch.reserve(qs.size() * 4);
  for (const int64_t q : qs) {
    plans.push_back(decoder.PlanQueries(q));
    for (const VertexSet& side : plans.back().cut_sides) {
      batch.push_back(CutQueryService::Query{object, side});
    }
  }
  const std::vector<double> answers = service.AnswerBatch(batch);
  DCS_CHECK_EQ(answers.size(), qs.size() * 4);
  std::vector<int8_t> bits(qs.size(), 0);
  for (size_t b = 0; b < qs.size(); ++b) {
    const ForEachDecoder::QueryPlan& plan = plans[b];
    double estimate = 0;
    for (size_t query = 0; query < 4; ++query) {
      estimate += plan.signs[query] *
                  (answers[4 * b + query] - plan.fixed_weights[query]);
    }
    bits[b] = estimate >= 0 ? 1 : -1;
  }
  DCS_METRIC_ADD("foreach.bit.decoded", static_cast<int64_t>(qs.size()));
  return bits;
}

}  // namespace dcs
