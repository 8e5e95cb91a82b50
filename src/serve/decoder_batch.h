// Service-path entry point for the for-each decoder.
//
// The decoders (lowerbound/) are below the serving layer in the dependency
// order, so the for-each decoder's batched variant lives here: its 4-tuple
// probes collapse into one AnswerBatch call (sharded + memoized). Answers
// are bit-identical to the per-query oracle path when the cache is cold,
// and identical by the cache's equality-checked memoization when warm. The
// for-all decoder has no service path: its subset walk runs on the
// oracle's own incremental session (lowerbound/forall_encoding.h).

#ifndef DCS_SERVE_DECODER_BATCH_H_
#define DCS_SERVE_DECODER_BATCH_H_

#include <cstdint>
#include <vector>

#include "lowerbound/foreach_encoding.h"
#include "serve/cut_query_service.h"

namespace dcs {

// Decodes bits qs[0..] of the for-each construction served as `object`:
// plans the four inclusion–exclusion sides per bit, answers all 4·|qs|
// queries in ONE AnswerBatch, then takes the alternating sums. Each bit
// still costs exactly 4 logical queries (Lemma 3.2) — batching changes
// scheduling and caching, never the count.
std::vector<int8_t> DecodeForEachBits(const ForEachDecoder& decoder,
                                      const std::vector<int64_t>& qs,
                                      CutQueryService& service,
                                      CutQueryService::ObjectId object);

}  // namespace dcs

#endif  // DCS_SERVE_DECODER_BATCH_H_
