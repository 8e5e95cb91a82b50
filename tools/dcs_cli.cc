// dcs — command-line driver for the library.
//
// Subcommands:
//   generate   write a synthetic graph to a text file
//   stats      vertex/edge counts, balance certificate, connectivity
//   mincut     exact global minimum cut (directed or undirected)
//   sketch     build a cut sketch through the backend registry
//              (--backend NAME, default foreach), report its size and
//              spot-check accuracy
//   localquery estimate the min cut via degree/neighbor queries only
//   encode     store a text message in a balanced graph's edge weights and
//              read it back through cut queries (Theorem 1.1 demo)
//   trials     run seed-deterministic lower-bound decode trials, optionally
//              across threads (--threads N; results are identical for any N)
//   protocol   run a one-way sketch protocol (Alice serializes, Bob
//              decodes), optionally over a lossy channel (--chaos-* flags)
//   distributed run the distributed min-cut pipeline on a partitioned
//              graph, optionally over a lossy channel with graceful
//              degradation when servers are lost
//   serve      run batched cut queries through the CutQueryService and
//              report cold vs warm-cache round times plus cache counters,
//              verifying warm answers are bit-identical to the cold pass
//   stream     write a replayable binary edge-update stream (--make), or
//              replay one through the concurrent StreamIngestor with
//              epoch barriers and per-epoch connectivity/min-cut reports
//   cluster    spawn a fleet of dcs_server worker processes, drive
//              replicated query traffic with failover while SIGKILLing
//              workers at --kill-rate, and verify every completed answer
//              is bit-identical to a single-process oracle; with
//              --store-root DIR workers persist registrations and
//              respawns warm-load + reattach instead of re-registering
//   store      poke a disk-backed sketch store directory (DESIGN.md §15):
//              put/get directed graphs by object id, compact away
//              superseded record versions, or fsck every segment
//
// Chaos flags (protocol, distributed): passing any of --chaos-seed,
// --chaos-drop, --chaos-flip, --chaos-truncate, --chaos-duplicate,
// --chaos-reorder, --chaos-rounds routes every message through a
// ReliableLink over a seeded LossyChannel (DESIGN.md §9). The fault script
// is a pure function of --chaos-seed, so reruns are bit-identical.
//
// Examples:
//   dcs generate --type balanced --n 100 --beta 4 --seed 1 --out g.txt
//   dcs stats --in g.txt --directed 1
//   dcs mincut --in g.txt --directed 1
//   dcs sketch --in g.txt --backend foreach --epsilon 0.2 --beta 4
//   dcs sketch --in g.txt --backend cut_balance --epsilon 0.2 --beta 4
//   dcs serve --n 128 --backend importance --rounds 3 --batch 256
//   dcs generate --type dumbbell --n 40 --k 3 --out d.txt
//   dcs localquery --in d.txt --epsilon 0.25
//   dcs encode --message "hello cuts"
//   dcs trials --kind forall --trials 40 --threads 4 --mode enumerate
//   dcs protocol --kind foreach --probes 32 --chaos-seed 7 --chaos-drop 0.05
//   dcs distributed --in d.txt --servers 4 --chaos-seed 7 --chaos-drop 0.3
//   dcs serve --n 128 --rounds 4 --batch 512 --pool 64 --cache-capacity 32
//   dcs stream --make 1 --n 256 --updates 20000 --out updates.bin
//   dcs stream --in updates.bin --inserters 2 --shards 4 --k 2 --epochs 4
//   dcs cluster --workers 4 --replication 2 --kill-rate 0.2
//   dcs store --dir /tmp/store --op put --id 7 --in g.txt
//   dcs store --dir /tmp/store --op fsck

// Exit codes: 0 success, 1 runtime/data error (unreadable or corrupt
// input, failed write), 2 usage error (unknown command/flag, malformed
// numeric value). Errors go to stderr; the tool never aborts on bad input.
// A flag is unknown to a subcommand when the subcommand never reads it.
// Each subcommand reads every flag it uses first, then refuses the unknown
// ones (naming each, exit 2) before it writes a file, touches a store,
// spawns a worker or prints anything.
//
// Every subcommand accepts --metrics-json FILE (or --metrics-json=FILE):
// after the command runs, the process-wide metrics snapshot (cut queries,
// local queries, per-sketch-kind serialized bit sizes, ...) is written to
// FILE as deterministic JSON. See DESIGN.md §8.

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "comm/channel.h"
#include "distributed/distributed_mincut.h"
#include "graph/balance.h"
#include "graph/connectivity.h"
#include "graph/generators.h"
#include "graph/graph_io.h"
#include "localquery/mincut_estimator.h"
#include "lowerbound/protocols.h"
#include "stream/agm_sketch.h"
#include "stream/binary_stream.h"
#include "stream/ingest.h"
#include "lowerbound/forall_encoding.h"
#include "lowerbound/foreach_encoding.h"
#include "mincut/directed_mincut.h"
#include "mincut/stoer_wagner.h"
#include "serve/cut_query_service.h"
#include "serve/load_driver.h"
#include "sketch/backend_registry.h"
#include "sketch/cut_sketch.h"
#include "sketch/serialization.h"
#include "store/sketch_store.h"
#include "util/bitio.h"
#include "util/check.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/random.h"

namespace {

// Parsed `--key value` flags. Every lookup records its key, so once a
// subcommand has read every flag it uses, the flags it never asked for are
// known without a second per-command list of valid flags.
class FlagMap {
 public:
  explicit FlagMap(std::string command) : command_(std::move(command)) {}

  void Set(const std::string& key, std::string value) {
    values_[key] = std::move(value);
  }

  // The value of --key, or nullptr; either way `key` counts as read.
  const std::string* Find(const std::string& key) const {
    DCS_CHECK(!checked_);  // every flag is read before RejectUnread
    read_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }

  // Names every given flag no lookup asked for, in name order, and returns
  // true iff there was one. A subcommand calls this after reading every
  // flag it uses and before its first side effect, and returns 2 on true.
  bool RejectUnread() const {
    checked_ = true;
    bool any = false;
    for (const auto& [key, value] : values_) {
      if (read_.count(key) != 0) continue;
      std::fprintf(stderr, "dcs %s: unknown flag --%s\n", command_.c_str(),
                   key.c_str());
      any = true;
    }
    return any;
  }

  bool checked() const { return checked_; }

 private:
  const std::string command_;
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
  mutable bool checked_ = false;
};

FlagMap ParseFlags(int argc, char** argv, int start) {
  FlagMap flags(argv[start - 1]);
  for (int i = start; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", key.c_str());
      std::exit(2);
    }
    key = key.substr(2);
    // Both spellings are accepted: `--key value` and `--key=value`.
    const size_t equals = key.find('=');
    if (equals != std::string::npos) {
      flags.Set(key.substr(0, equals), key.substr(equals + 1));
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "flag --%s needs a value\n", key.c_str());
      std::exit(2);
    }
    flags.Set(key, argv[++i]);
  }
  return flags;
}

std::string GetFlag(const FlagMap& flags, const std::string& key,
                    const std::string& fallback) {
  const std::string* value = flags.Find(key);
  return value == nullptr ? fallback : *value;
}

// Numeric flag parsing via strtod/strtol with full-consumption and range
// checks: a malformed or out-of-range value (`--eps=1e999` overflows to
// inf with errno == ERANGE) is a usage error (exit 2), never an uncaught
// exception, a silently truncated parse, or a non-finite value leaking
// into the math downstream.
double GetDouble(const FlagMap& flags, const std::string& key,
                 double fallback) {
  const std::string* text = flags.Find(key);
  if (text == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text->c_str(), &end);
  if (text->empty() || end != text->c_str() + text->size()) {
    std::fprintf(stderr, "flag --%s: '%s' is not a number\n", key.c_str(),
                 text->c_str());
    std::exit(2);
  }
  if (errno == ERANGE || !std::isfinite(value)) {
    std::fprintf(stderr, "flag --%s: '%s' is out of range\n", key.c_str(),
                 text->c_str());
    std::exit(2);
  }
  return value;
}

int GetInt(const FlagMap& flags, const std::string& key, int fallback) {
  const std::string* text = flags.Find(key);
  if (text == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text->c_str(), &end, 10);
  if (text->empty() || end != text->c_str() + text->size()) {
    std::fprintf(stderr, "flag --%s: '%s' is not an integer\n", key.c_str(),
                 text->c_str());
    std::exit(2);
  }
  if (errno == ERANGE || value < INT_MIN || value > INT_MAX) {
    std::fprintf(stderr, "flag --%s: '%s' is out of range\n", key.c_str(),
                 text->c_str());
    std::exit(2);
  }
  return static_cast<int>(value);
}

bool HasFlag(const FlagMap& flags, const std::string& key) {
  return flags.Find(key) != nullptr;
}

// A 0/1 switch such as --directed, --make or --cache: 1 is on, 0 is off,
// absent is `fallback`; anything else is a usage error.
bool GetSwitch(const FlagMap& flags, const std::string& key, bool fallback) {
  const int value = GetInt(flags, key, fallback ? 1 : 0);
  if (value != 0 && value != 1) {
    std::fprintf(stderr, "flag --%s: must be 0 or 1 (got %d)\n", key.c_str(),
                 value);
    std::exit(2);
  }
  return value == 1;
}

int CmdGenerate(const FlagMap& flags) {
  const std::string type = GetFlag(flags, "type", "balanced");
  const std::string out = GetFlag(flags, "out", "graph.txt");
  const int n = GetInt(flags, "n", 64);
  dcs::Rng rng(static_cast<uint64_t>(GetInt(flags, "seed", 1)));
  // Exactly one of the two is built; the file is written only after every
  // flag has been read.
  std::optional<dcs::DirectedGraph> directed;
  std::optional<dcs::UndirectedGraph> undirected;
  if (type == "balanced") {
    const double beta = GetDouble(flags, "beta", 2.0);
    const double p = GetDouble(flags, "p", 0.3);
    directed = dcs::RandomBalancedDigraph(n, p, beta, rng);
  } else if (type == "eulerian") {
    directed =
        dcs::RandomEulerianDigraph(n, GetInt(flags, "cycles", n), 8, rng);
  } else if (type == "random") {
    const double p = GetDouble(flags, "p", 0.2);
    undirected = dcs::RandomUndirectedGraph(n, p, 1.0, 1.0, true, rng);
  } else if (type == "dumbbell") {
    undirected = dcs::DumbbellGraph(n / 2, GetInt(flags, "k", 2));
  } else if (type == "multigraph") {
    undirected = dcs::UnionOfRandomMatchings(n, GetInt(flags, "k", 8), rng);
  } else {
    std::fprintf(stderr,
                 "unknown --type (balanced|eulerian|random|dumbbell|"
                 "multigraph)\n");
    return 2;
  }
  if (flags.RejectUnread()) return 2;
  const dcs::Status status = directed
                                 ? dcs::SaveDirectedGraph(*directed, out)
                                 : dcs::SaveUndirectedGraph(*undirected, out);
  if (!status.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", out.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int CmdStats(const FlagMap& flags) {
  const std::string in = GetFlag(flags, "in", "graph.txt");
  const bool directed = GetSwitch(flags, "directed", false);
  if (flags.RejectUnread()) return 2;
  if (directed) {
    const auto graph = dcs::LoadDirectedGraph(in);
    if (!graph.ok()) {
      std::fprintf(stderr, "cannot read directed graph from %s: %s\n",
                   in.c_str(), graph.status().ToString().c_str());
      return 1;
    }
    std::printf("directed graph: n=%d m=%lld total weight %.3f\n",
                graph->num_vertices(),
                static_cast<long long>(graph->num_edges()),
                graph->TotalWeight());
    std::printf("strongly connected: %s\n",
                dcs::IsStronglyConnected(*graph) ? "yes" : "no");
    const auto certificate = dcs::PerEdgeBalanceCertificate(*graph);
    if (certificate) {
      std::printf("per-edge balance certificate: beta <= %.4f\n",
                  *certificate);
    } else {
      std::printf("per-edge balance certificate: none (some edge has no "
                  "reverse weight)\n");
    }
    return 0;
  }
  const auto graph = dcs::LoadUndirectedGraph(in);
  if (!graph.ok()) {
    std::fprintf(stderr, "cannot read undirected graph from %s: %s\n",
                 in.c_str(), graph.status().ToString().c_str());
    return 1;
  }
  std::printf("undirected graph: n=%d m=%lld total weight %.3f\n",
              graph->num_vertices(),
              static_cast<long long>(graph->num_edges()),
              graph->TotalWeight());
  std::printf("connected: %s (%d components)\n",
              dcs::IsConnected(*graph) ? "yes" : "no",
              dcs::CountComponents(*graph));
  return 0;
}

int CmdMinCut(const FlagMap& flags) {
  const std::string in = GetFlag(flags, "in", "graph.txt");
  const bool directed = GetSwitch(flags, "directed", false);
  if (flags.RejectUnread()) return 2;
  if (directed) {
    const auto graph = dcs::LoadDirectedGraph(in);
    if (!graph.ok()) {
      std::fprintf(stderr, "%s: %s\n", in.c_str(),
                   graph.status().ToString().c_str());
      return 1;
    }
    const dcs::GlobalMinCut cut = dcs::DirectedGlobalMinCut(*graph);
    std::printf("directed global min cut: %.6f (|S| = %lld)\n", cut.value,
                static_cast<long long>(dcs::SetSize(cut.side)));
    return 0;
  }
  const auto graph = dcs::LoadUndirectedGraph(in);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s: %s\n", in.c_str(),
                 graph.status().ToString().c_str());
    return 1;
  }
  const dcs::GlobalMinCut cut = dcs::StoerWagnerMinCut(*graph);
  std::printf("global min cut: %.6f (|S| = %lld)\n", cut.value,
              static_cast<long long>(dcs::SetSize(cut.side)));
  return 0;
}

int CmdSketch(const FlagMap& flags) {
  const std::string in = GetFlag(flags, "in", "graph.txt");
  const auto graph = dcs::LoadDirectedGraph(in);
  if (!graph.ok()) {
    std::fprintf(stderr,
                 "sketch works on directed graphs (see generate "
                 "--type balanced): %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  const std::string backend = GetFlag(flags, "backend", "foreach");
  dcs::BackendOptions options;
  options.epsilon = GetDouble(flags, "epsilon", 0.2);
  options.beta = GetDouble(
      flags, "beta", dcs::PerEdgeBalanceCertificate(*graph).value_or(1.0));
  options.seed = static_cast<uint64_t>(GetInt(flags, "seed", 1));
  options.median_boost = GetInt(flags, "median-boost", 1);
  if (flags.RejectUnread()) return 2;
  auto built = dcs::BuildBackendSketch(backend, *graph, options);
  if (!built.ok()) {
    // The registry's kInvalidArgument message lists the valid names.
    std::fprintf(stderr, "--backend: %s\n",
                 std::string(built.status().message()).c_str());
    return 2;
  }
  const std::unique_ptr<dcs::DirectedCutSketch> sketch =
      std::move(built).value();
  std::printf("%s sketch at eps=%.3f beta=%.2f: %lld bits (graph: %lld)\n",
              backend.c_str(), options.epsilon, options.beta,
              static_cast<long long>(sketch->SizeInBits()),
              static_cast<long long>(
                  graph->num_edges() * 64));  // rough edge-list floor
  // Spot check: 5 random cuts.
  dcs::Rng cut_rng(7);
  std::printf("%-10s %12s %12s %10s\n", "cut", "exact", "estimate",
              "rel err");
  for (int trial = 0; trial < 5; ++trial) {
    dcs::VertexSet side(static_cast<size_t>(graph->num_vertices()));
    for (auto& bit : side) bit = static_cast<uint8_t>(cut_rng.Next() & 1);
    if (!dcs::IsProperCutSide(side)) continue;
    const double exact = graph->CutWeight(side);
    const double estimate = sketch->EstimateCut(side);
    std::printf("#%-9d %12.3f %12.3f %10.4f\n", trial, exact, estimate,
                exact > 0 ? std::abs(estimate - exact) / exact : 0.0);
  }
  return 0;
}

int CmdLocalQuery(const FlagMap& flags) {
  const std::string in = GetFlag(flags, "in", "graph.txt");
  const auto graph = dcs::LoadUndirectedGraph(in);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s: %s\n", in.c_str(),
                 graph.status().ToString().c_str());
    return 1;
  }
  const double epsilon = GetDouble(flags, "epsilon", 0.25);
  dcs::Rng rng(static_cast<uint64_t>(GetInt(flags, "seed", 1)));
  if (flags.RejectUnread()) return 2;
  const dcs::LocalQueryMinCutResult result = dcs::EstimateMinCutLocalQueries(
      *graph, epsilon, dcs::SearchMode::kModifiedConstantSearch, rng);
  std::printf("estimated min cut: %.3f\n", result.estimate);
  std::printf("queries: %lld degree, %lld neighbor, %lld adjacency\n",
              static_cast<long long>(result.counts.degree),
              static_cast<long long>(result.counts.neighbor),
              static_cast<long long>(result.counts.adjacency));
  std::printf("Lemma 5.6 communication: %lld bits\n",
              static_cast<long long>(result.communication_bits));
  return 0;
}

int CmdAgm(const FlagMap& flags) {
  const std::string in = GetFlag(flags, "in", "graph.txt");
  const auto graph = dcs::LoadUndirectedGraph(in);
  if (!graph.ok()) {
    std::fprintf(stderr, "cannot read undirected graph from %s: %s\n",
                 in.c_str(), graph.status().ToString().c_str());
    return 1;
  }
  for (const dcs::Edge& e : graph->edges()) {
    if (e.weight != 1.0) {
      std::fprintf(stderr, "agm requires an unweighted graph\n");
      return 1;
    }
  }
  const uint64_t seed = static_cast<uint64_t>(GetInt(flags, "seed", 1));
  if (flags.RejectUnread()) return 2;
  const dcs::AgmConnectivitySketch sketch =
      dcs::SketchGraph(*graph, 0, seed);
  std::printf("AGM sketch: %lld bits, %lld linear measurements\n",
              static_cast<long long>(sketch.SizeInBits()),
              static_cast<long long>(sketch.MeasurementCount()));
  std::printf("components (from sketch): %d\n", sketch.CountComponents());
  std::printf("spanning forest edges: %zu\n",
              sketch.SpanningForest().size());
  return 0;
}

int CmdEncode(const FlagMap& flags) {
  const std::string message = GetFlag(flags, "message", "hello cuts");
  dcs::ForEachLowerBoundParams params;
  params.inv_epsilon = GetInt(flags, "inv-eps", 8);
  params.sqrt_beta = GetInt(flags, "sqrt-beta", 2);
  if (flags.RejectUnread()) return 2;
  const int64_t needed = static_cast<int64_t>(message.size()) * 8;
  params.num_layers = 2;
  while (params.total_bits() < needed) ++params.num_layers;
  std::vector<int8_t> signs;
  for (char c : message) {
    for (int bit = 7; bit >= 0; --bit) {
      signs.push_back(((c >> bit) & 1) ? 1 : -1);
    }
  }
  while (static_cast<int64_t>(signs.size()) < params.total_bits()) {
    signs.push_back(1);
  }
  const dcs::ForEachEncoder encoder(params);
  const auto encoding = encoder.Encode(signs);
  std::printf("encoded %zu chars into a %d-vertex beta=%.0f-balanced graph "
              "(%lld edges)\n",
              message.size(), params.num_vertices(), params.beta(),
              static_cast<long long>(encoding.graph.num_edges()));
  const dcs::ForEachDecoder decoder(params);
  const dcs::CutOracle oracle = dcs::ExactCutOracle(encoding.graph);
  std::string decoded;
  for (size_t c = 0; c < message.size(); ++c) {
    char value = 0;
    for (int bit = 0; bit < 8; ++bit) {
      const int8_t sign = decoder.DecodeBit(
          static_cast<int64_t>(c * 8 + static_cast<size_t>(bit)), oracle);
      value = static_cast<char>((value << 1) | (sign > 0 ? 1 : 0));
    }
    decoded.push_back(value);
  }
  std::printf("decoded via cut queries: \"%s\"\n", decoded.c_str());
  return 0;
}

int CmdTrials(const FlagMap& flags) {
  const std::string kind = GetFlag(flags, "kind", "forall");
  const int trials = GetInt(flags, "trials", 20);
  const int threads = GetInt(flags, "threads", 1);
  const uint64_t seed = static_cast<uint64_t>(GetInt(flags, "seed", 1));
  const double noise = GetDouble(flags, "noise", 0.0);
  const dcs::SeededCutOracleFactory oracle_factory =
      [noise](const dcs::DirectedGraph& graph,
              dcs::Rng& rng) -> dcs::CutOracle {
    if (noise <= 0) return dcs::ExactCutOracle(graph);
    return dcs::NoisyCutOracle(graph, noise, rng);
  };
  if (kind == "forall") {
    dcs::ForAllLowerBoundParams params;
    params.inv_epsilon_sq = GetInt(flags, "inv-eps-sq", 4);
    params.beta = GetInt(flags, "beta", 2);
    params.num_layers = GetInt(flags, "layers", 2);
    const std::string mode_name = GetFlag(flags, "mode", "greedy");
    if (mode_name != "greedy" && mode_name != "enumerate") {
      std::fprintf(stderr, "unknown --mode (greedy|enumerate)\n");
      return 2;
    }
    const auto mode = mode_name == "enumerate"
                          ? dcs::ForAllDecoder::SubsetSelection::kEnumerate
                          : dcs::ForAllDecoder::SubsetSelection::kGreedy;
    if (flags.RejectUnread()) return 2;
    const dcs::ForAllTrialResult result = dcs::RunForAllTrials(
        params, trials, seed, oracle_factory, mode, threads);
    std::printf("forall %s: %lld/%lld correct (accuracy %.3f, threads %d)\n",
                mode_name.c_str(), static_cast<long long>(result.correct),
                static_cast<long long>(result.trials), result.accuracy(),
                threads);
    return 0;
  }
  if (kind == "foreach") {
    dcs::ForEachLowerBoundParams params;
    params.inv_epsilon = GetInt(flags, "inv-eps", 8);
    params.sqrt_beta = GetInt(flags, "sqrt-beta", 2);
    params.num_layers = GetInt(flags, "layers", 2);
    const int probes = GetInt(flags, "probes", 16);
    if (flags.RejectUnread()) return 2;
    const dcs::ForEachTrialResult result = dcs::RunForEachTrials(
        params, trials, probes, seed, oracle_factory, threads);
    std::printf("foreach: %lld/%lld probes correct (accuracy %.3f, "
                "threads %d)\n",
                static_cast<long long>(result.correct),
                static_cast<long long>(result.probes), result.accuracy(),
                threads);
    return 0;
  }
  std::fprintf(stderr, "unknown --kind (forall|foreach)\n");
  return 2;
}

// Fills `channel` from the --chaos-* flags and returns true iff any of
// them was given (no chaos flags ⇒ no channel, exactly the old in-process
// behavior). Out-of-range rates are a usage error (exit 2), never an
// abort.
bool ParseChannelFlags(const FlagMap& flags, dcs::ChannelOptions& channel) {
  static const char* kRateFlags[] = {"chaos-drop", "chaos-flip",
                                     "chaos-truncate", "chaos-duplicate",
                                     "chaos-reorder"};
  bool any = HasFlag(flags, "chaos-seed") || HasFlag(flags, "chaos-rounds");
  for (const char* flag : kRateFlags) any = any || HasFlag(flags, flag);
  if (!any) return false;
  channel.seed = static_cast<uint64_t>(GetInt(flags, "chaos-seed", 1));
  channel.drop_rate = GetDouble(flags, "chaos-drop", 0.0);
  channel.flip_rate = GetDouble(flags, "chaos-flip", 0.0);
  channel.truncate_rate = GetDouble(flags, "chaos-truncate", 0.0);
  channel.duplicate_rate = GetDouble(flags, "chaos-duplicate", 0.0);
  channel.reorder_rate = GetDouble(flags, "chaos-reorder", 0.0);
  channel.max_rounds = GetInt(flags, "chaos-rounds", channel.max_rounds);
  for (const char* flag : kRateFlags) {
    const double rate = GetDouble(flags, flag, 0.0);
    if (rate < 0.0 || rate > 1.0) {
      std::fprintf(stderr, "flag --%s: rate must be in [0, 1]\n", flag);
      std::exit(2);
    }
  }
  if (channel.max_rounds < 1) {
    std::fprintf(stderr, "flag --chaos-rounds: must be >= 1\n");
    std::exit(2);
  }
  return true;
}

int CmdProtocol(const FlagMap& flags) {
  const std::string kind = GetFlag(flags, "kind", "foreach");
  const double sketch_eps = GetDouble(flags, "sketch-eps", 0.25);
  const double oversample = GetDouble(flags, "oversample", 2.0);
  dcs::Rng rng(static_cast<uint64_t>(GetInt(flags, "seed", 1)));
  dcs::ChannelOptions channel;
  const bool chaos = ParseChannelFlags(flags, channel);
  const dcs::ChannelOptions* channel_ptr = chaos ? &channel : nullptr;
  dcs::SketchProtocolResult result;
  if (kind == "foreach") {
    dcs::ForEachLowerBoundParams params;
    params.inv_epsilon = GetInt(flags, "inv-eps", 8);
    params.sqrt_beta = GetInt(flags, "sqrt-beta", 2);
    params.num_layers = GetInt(flags, "layers", 2);
    const int probes = GetInt(flags, "probes", 16);
    if (flags.RejectUnread()) return 2;
    result = dcs::RunForEachSketchProtocol(params, sketch_eps, oversample,
                                           probes, rng, channel_ptr);
  } else if (kind == "forall") {
    dcs::ForAllLowerBoundParams params;
    params.inv_epsilon_sq = GetInt(flags, "inv-eps-sq", 4);
    params.beta = GetInt(flags, "beta", 2);
    params.num_layers = GetInt(flags, "layers", 2);
    const int trials = GetInt(flags, "trials", 8);
    if (flags.RejectUnread()) return 2;
    result = dcs::RunForAllSketchProtocol(params, sketch_eps, oversample,
                                          trials, rng, channel_ptr);
  } else {
    std::fprintf(stderr, "unknown --kind (foreach|forall)\n");
    return 2;
  }
  // The decode line stays comparable across chaos settings (a fully
  // recovered run matches the fault-free run bit for bit); the transport
  // line carries everything the channel changed.
  std::printf("%s protocol: %lld/%lld correct (accuracy %.3f)%s\n",
              kind.c_str(), static_cast<long long>(result.correct),
              static_cast<long long>(result.probes), result.accuracy(),
              result.degraded() ? " [degraded]" : "");
  std::printf("transport: %lld message bits (sketch %lld, payload %lld, "
              "retransmitted %lld, lost %lld)\n",
              static_cast<long long>(result.message_bits),
              static_cast<long long>(result.sketch_bits),
              static_cast<long long>(result.payload_bits),
              static_cast<long long>(result.retransmitted_bits),
              static_cast<long long>(result.lost_messages));
  return 0;
}

int CmdDistributed(const FlagMap& flags) {
  const std::string in = GetFlag(flags, "in", "graph.txt");
  const auto graph = dcs::LoadUndirectedGraph(in);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s: %s\n", in.c_str(),
                 graph.status().ToString().c_str());
    return 1;
  }
  if (graph->num_vertices() < 2) {
    std::fprintf(stderr, "distributed needs a graph with >= 2 vertices\n");
    return 1;
  }
  const int servers = GetInt(flags, "servers", 4);
  if (servers < 1) {
    std::fprintf(stderr, "flag --servers: must be >= 1\n");
    return 2;
  }
  dcs::DistributedMinCutOptions options;
  options.epsilon = GetDouble(flags, "epsilon", 0.1);
  options.coarse_epsilon = GetDouble(flags, "coarse-eps", 0.2);
  options.median_boost = GetInt(flags, "median-boost", 3);
  dcs::Rng rng(static_cast<uint64_t>(GetInt(flags, "seed", 1)));
  dcs::ChannelOptions channel;
  const bool chaos = ParseChannelFlags(flags, channel);
  if (flags.RejectUnread()) return 2;
  const dcs::DistributedMinCutPipeline pipeline(
      dcs::PartitionEdges(*graph, servers, rng), options, rng);
  dcs::DistributedMinCutPipeline::Result result;
  if (chaos) {
    auto run = pipeline.Run(rng, channel);
    if (!run.ok()) {
      std::fprintf(stderr, "distributed run failed: %s\n",
                   run.status().ToString().c_str());
      return 1;
    }
    result = std::move(run).value();
  } else {
    result = pipeline.Run(rng);
  }
  std::printf("distributed min cut estimate: %.6f (|S| = %lld, "
              "%d candidates, %d servers)\n",
              result.estimate,
              static_cast<long long>(dcs::SetSize(result.best_side)),
              result.candidates_considered, servers);
  std::printf("sketch bits: %lld forall + %lld foreach = %lld "
              "(naive ship-all %lld)\n",
              static_cast<long long>(result.forall_bits),
              static_cast<long long>(result.foreach_bits),
              static_cast<long long>(result.total_bits()),
              static_cast<long long>(pipeline.NaiveShipAllBits()));
  if (chaos) {
    std::string lost;
    for (const int server : result.lost_servers) {
      if (!lost.empty()) lost += ",";
      lost += std::to_string(server);
    }
    std::printf("channel: %lld wire bits (%lld retransmitted), "
                "degraded %s%s%s, effective eps %.4f\n",
                static_cast<long long>(result.channel_wire_bits),
                static_cast<long long>(result.retransmitted_bits),
                result.degraded ? "yes" : "no",
                result.degraded ? ", lost servers " : "", lost.c_str(),
                result.effective_epsilon);
  }
  return 0;
}

int CmdServe(const FlagMap& flags) {
  const int n = GetInt(flags, "n", 64);
  const double p = GetDouble(flags, "p", 0.3);
  const double beta = GetDouble(flags, "beta", 2.0);
  const int rounds = GetInt(flags, "rounds", 4);
  const int batch_size = GetInt(flags, "batch", 256);
  const int pool_size = GetInt(flags, "pool", 32);
  if (n < 2 || rounds < 1 || batch_size < 1 || pool_size < 1) {
    std::fprintf(stderr,
                 "serve needs --n >= 2, --rounds/--batch/--pool >= 1\n");
    return 2;
  }
  dcs::CutQueryServiceOptions options;
  options.enable_cache = GetSwitch(flags, "cache", true);
  options.cache_capacity =
      static_cast<int64_t>(GetInt(flags, "cache-capacity", 1 << 16));
  if (options.cache_capacity < 1) {
    std::fprintf(stderr, "serve needs --cache-capacity >= 1\n");
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(GetInt(flags, "seed", 1));
  // Default object is the exact graph oracle; --backend serves the named
  // registry sparsifier instead (same memoization contract either way).
  const std::string backend = GetFlag(flags, "backend", "");
  dcs::BackendOptions backend_options;
  if (!backend.empty()) {
    backend_options.epsilon = GetDouble(flags, "epsilon", 0.2);
    backend_options.beta = beta;
    backend_options.seed = seed;
    backend_options.median_boost = GetInt(flags, "median-boost", 1);
  }
  if (flags.RejectUnread()) return 2;

  dcs::Rng rng(seed);
  const dcs::DirectedGraph graph = dcs::RandomBalancedDigraph(n, p, beta, rng);
  dcs::CutQueryService service(options);
  dcs::CutQueryService::ObjectId object;
  if (backend.empty()) {
    object = service.RegisterGraph(graph);
  } else {
    const auto registered =
        service.RegisterBackendSketch(graph, backend, backend_options);
    if (!registered.ok()) {
      std::fprintf(stderr, "--backend: %s\n",
                   std::string(registered.status().message()).c_str());
      return 2;
    }
    object = *registered;
  }

  // A fixed pool of proper cut sides; every round's batch cycles through
  // it, so round 1 is all cold and later rounds are all warm.
  std::vector<dcs::VertexSet> pool;
  while (static_cast<int>(pool.size()) < pool_size) {
    dcs::VertexSet side(static_cast<size_t>(n));
    for (auto& bit : side) bit = static_cast<uint8_t>(rng.Next() & 1);
    if (dcs::IsProperCutSide(side)) pool.push_back(std::move(side));
  }
  std::vector<dcs::CutQueryService::Query> batch;
  for (int i = 0; i < batch_size; ++i) {
    batch.push_back({object, pool[static_cast<size_t>(i) % pool.size()]});
  }

  std::printf("serving %d-vertex graph: %d rounds x %d queries "
              "(%zu distinct sides, cache %s)\n",
              n, rounds, batch_size, pool.size(),
              options.enable_cache ? "on" : "off");
  // First-seen answer per pool side; every later round must reproduce it
  // bit for bit (the memoization contract), cache on or off.
  std::vector<double> first_seen(pool.size());
  for (int round = 0; round < rounds; ++round) {
    const auto start = std::chrono::steady_clock::now();
    const std::vector<double> answers = service.AnswerBatch(batch);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    for (size_t i = 0; i < answers.size(); ++i) {
      const size_t side_index = i % pool.size();
      if (round == 0 && i == side_index) {
        first_seen[side_index] = answers[i];
      } else if (answers[i] != first_seen[side_index]) {
        std::fprintf(stderr,
                     "round %d query %zu: answer %.17g != first-seen "
                     "%.17g\n",
                     round, i, answers[i], first_seen[side_index]);
        return 1;
      }
    }
    std::printf("round %d: %8.3f ms  (%.0f queries/s)%s\n", round, ms,
                ms > 0 ? 1000.0 * batch_size / ms : 0.0,
                round == 0 ? "  [cold]" : "  [warm]");
  }
  const auto snapshot = dcs::metrics::Registry::Get().Snapshot();
  const auto counter = [&snapshot](const char* name) -> long long {
    const auto it = snapshot.counters.find(name);
    return it == snapshot.counters.end() ? 0 : it->second;
  };
  std::printf("cache: %lld hits, %lld misses, %lld evictions "
              "(%lld entries); %lld logical queries\n",
              counter("serve.cache.hits"), counter("serve.cache.misses"),
              counter("serve.cache.evictions"),
              static_cast<long long>(service.cache_size()),
              counter("serve.query.logical"));
  return 0;
}

// The concurrent streaming ingestion pipeline (DESIGN.md §12).
//
//   dcs stream --make 1 --n 256 --updates 20000 --delete-frac 0.2
//       --seed 7 --out updates.bin
// writes a reproducible random insert/delete stream in the checksummed
// binary format (stream/binary_stream.h);
//
//   dcs stream --in updates.bin --inserters 2 --shards 4 --gutter 256
//       --k 2 --epochs 4
// replays it through a StreamIngestor, sealing --epochs snapshots along
// the way and reporting each epoch's connectivity (and min-cut-up-to-k
// when --k > 0) plus the final sketch digest. With --inserters > 1 the
// updates are partitioned *by edge* across producer threads: all updates
// of one edge stay with one producer in stream order, so per-edge
// insert/delete ordering — the thing delete validation checks — is
// preserved, and the final digest is identical to a serial replay.
//
// A delete of a never-inserted edge in the input is rejected with
// kFailedPrecondition and exits 1 (see README troubleshooting).
int CmdStream(const FlagMap& flags) {
  if (GetSwitch(flags, "make", false)) {
    const int n = GetInt(flags, "n", 256);
    const int updates = GetInt(flags, "updates", 20000);
    const double delete_frac = GetDouble(flags, "delete-frac", 0.2);
    const std::string out = GetFlag(flags, "out", "updates.bin");
    if (n < 2 || updates < 0 || delete_frac < 0 || delete_frac > 1) {
      std::fprintf(stderr,
                   "stream --make needs --n >= 2, --updates >= 0, "
                   "--delete-frac in [0, 1]\n");
      return 2;
    }
    dcs::Rng rng(static_cast<uint64_t>(GetInt(flags, "seed", 1)));
    if (flags.RejectUnread()) return 2;
    dcs::BinaryStreamWriter writer(n);
    for (const dcs::EdgeUpdate& update :
         dcs::RandomUpdateStream(n, updates, delete_frac, rng)) {
      writer.Append(update);
    }
    const dcs::Status status = writer.WriteFile(out);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %lld updates over %d vertices to %s\n",
                static_cast<long long>(writer.update_count()), n, out.c_str());
    return 0;
  }

  const std::string in = GetFlag(flags, "in", "updates.bin");
  const int inserters = GetInt(flags, "inserters", 1);
  const int epochs = GetInt(flags, "epochs", 1);
  dcs::StreamIngestorOptions options;
  options.num_shards = GetInt(flags, "shards", 4);
  options.gutter_capacity = GetInt(flags, "gutter", 256);
  options.num_threads = GetInt(flags, "threads", 1);
  options.k = GetInt(flags, "k", 0);
  options.rounds = GetInt(flags, "rounds", 0);
  options.seed = static_cast<uint64_t>(GetInt(flags, "seed", 1));
  if (inserters < 1 || epochs < 1 || options.num_shards < 1 ||
      options.gutter_capacity < 1 || options.num_threads < 1 ||
      options.k < 0 || options.rounds < 0) {
    std::fprintf(stderr,
                 "stream needs --inserters/--epochs/--shards/--gutter/"
                 "--threads >= 1 and --k/--rounds >= 0\n");
    return 2;
  }
  if (flags.RejectUnread()) return 2;

  auto reader = dcs::BinaryStreamReader::FromFile(in);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s\n", reader.status().ToString().c_str());
    return 1;
  }
  // The stream format admits a single vertex (it can carry no updates), but
  // a StreamIngestor needs two; reject the input rather than abort.
  if (reader->num_vertices() < 2) {
    std::fprintf(stderr, "%s\n",
                 dcs::InvalidArgumentError(
                     "edge stream declares " +
                     std::to_string(reader->num_vertices()) +
                     " vertex; replay needs at least 2")
                     .ToString()
                     .c_str());
    return 1;
  }
  std::vector<dcs::EdgeUpdate> updates;
  updates.reserve(static_cast<size_t>(reader->update_count()));
  while (!reader->AtEnd()) {
    auto update = reader->Next();
    if (!update.ok()) {
      std::fprintf(stderr, "%s\n", update.status().ToString().c_str());
      return 1;
    }
    updates.push_back(*update);
  }

  dcs::StreamIngestor ingestor(reader->num_vertices(), options);
  std::printf("replaying %zu updates over %d vertices: %d inserters, "
              "%d shards, gutter %d, k %d, %d epoch%s\n",
              updates.size(), reader->num_vertices(), inserters,
              options.num_shards, options.gutter_capacity, options.k, epochs,
              epochs == 1 ? "" : "s");

  const size_t per_epoch = (updates.size() + static_cast<size_t>(epochs) - 1) /
                           static_cast<size_t>(epochs);
  for (int e = 0; e < epochs; ++e) {
    const size_t begin = std::min(static_cast<size_t>(e) * per_epoch,
                                  updates.size());
    const size_t end = std::min(begin + per_epoch, updates.size());
    // Partition this epoch's slice by edge: producer of {u, v} is a hash of
    // the canonical endpoints, so one producer sees all of an edge's
    // updates in stream order and delete validation is interleaving-proof.
    std::vector<std::vector<dcs::EdgeUpdate>> slices(
        static_cast<size_t>(inserters));
    for (size_t i = begin; i < end; ++i) {
      const dcs::EdgeUpdate& update = updates[i];
      const uint64_t lo = static_cast<uint64_t>(
          update.u < update.v ? update.u : update.v);
      const uint64_t hi = static_cast<uint64_t>(
          update.u < update.v ? update.v : update.u);
      const uint64_t key = (lo << 32 | hi) * 0x9e3779b97f4a7c15ULL;
      slices[(key >> 32) % static_cast<uint64_t>(inserters)].push_back(update);
    }
    std::vector<dcs::Status> results(static_cast<size_t>(inserters));
    const auto push_slice = [&ingestor](const std::vector<dcs::EdgeUpdate>&
                                            slice,
                                        dcs::Status& result) {
      for (const dcs::EdgeUpdate& update : slice) {
        result = ingestor.Push(update);
        if (!result.ok()) return;
      }
    };
    if (inserters == 1) {
      push_slice(slices[0], results[0]);
    } else {
      std::vector<std::thread> producers;
      producers.reserve(static_cast<size_t>(inserters));
      for (int p = 0; p < inserters; ++p) {
        producers.emplace_back(push_slice,
                               std::cref(slices[static_cast<size_t>(p)]),
                               std::ref(results[static_cast<size_t>(p)]));
      }
      for (std::thread& producer : producers) producer.join();
    }
    for (const dcs::Status& result : results) {
      if (!result.ok()) {
        std::fprintf(stderr, "%s\n", result.ToString().c_str());
        return 1;
      }
    }
    const auto epoch = ingestor.Barrier();
    if (!epoch.ok()) {
      std::fprintf(stderr, "%s\n", epoch.status().ToString().c_str());
      return 1;
    }
    const auto snapshot = ingestor.snapshot();
    if (options.k > 0) {
      std::printf("epoch %lld: %lld updates, %d components, mincut<=k %.0f\n",
                  static_cast<long long>(snapshot->epoch),
                  static_cast<long long>(snapshot->updates_applied),
                  snapshot->components, snapshot->min_cut_up_to_k);
    } else {
      std::printf("epoch %lld: %lld updates, %d components, %s\n",
                  static_cast<long long>(snapshot->epoch),
                  static_cast<long long>(snapshot->updates_applied),
                  snapshot->components,
                  snapshot->connected ? "connected" : "disconnected");
    }
  }
  std::printf("final digest %016llx\n",
              static_cast<unsigned long long>(ingestor.snapshot()->digest));
  return 0;
}

// dcs store — poke a disk-backed sketch store directory (DESIGN.md §15).
//   put     --dir D --id K --in graph.txt   serialize the directed graph,
//           append it as object K, seal (durable on return)
//   get     --dir D --id K --out graph.txt  read object K back (directed
//           graphs only) and write it as a text graph
//   compact --dir D                         rewrite the newest version of
//           every object into one fresh sealed segment
//   fsck    --dir D                         read-only per-segment verdict:
//           sealed / unsealed / recovered_torn_tail / corrupt. Exit 1 if
//           any segment is corrupt beyond a torn tail (`data_loss:
//           segment`); a recoverable torn tail alone is exit 0.
int CmdStore(const FlagMap& flags) {
  const std::string dir = GetFlag(flags, "dir", "");
  const std::string op = GetFlag(flags, "op", "");
  if (dir.empty() || op.empty()) {
    std::fprintf(stderr,
                 "dcs store needs --dir DIR and --op put|get|compact|fsck\n");
    return 2;
  }
  // Every op's flags are read and checked before the store is touched.
  std::string in;
  std::string out;
  int id = -1;
  if (op == "put") {
    in = GetFlag(flags, "in", "");
    id = GetInt(flags, "id", -1);
    if (in.empty() || id < 0) {
      std::fprintf(stderr, "store put needs --in FILE and --id K (>= 0)\n");
      return 2;
    }
  } else if (op == "get") {
    out = GetFlag(flags, "out", "");
    id = GetInt(flags, "id", -1);
    if (out.empty() || id < 0) {
      std::fprintf(stderr, "store get needs --out FILE and --id K (>= 0)\n");
      return 2;
    }
  } else if (op != "compact" && op != "fsck") {
    std::fprintf(stderr, "unknown --op '%s' (put|get|compact|fsck)\n",
                 op.c_str());
    return 2;
  }
  if (flags.RejectUnread()) return 2;
  if (op == "fsck") {
    // Deliberately not SketchStore::Open: fsck must never write, and Open
    // truncates torn tails in place.
    const auto report = dcs::FsckSketchStore(dir);
    if (!report.ok()) {
      std::fprintf(stderr, "fsck %s: %s\n", dir.c_str(),
                   report.status().ToString().c_str());
      return 1;
    }
    for (const auto& segment : report->segments) {
      std::printf("%s: %s records %lld dropped_tail_bytes %lld%s%s\n",
                  segment.file.c_str(), segment.state.c_str(),
                  static_cast<long long>(segment.records),
                  static_cast<long long>(segment.dropped_tail_bytes),
                  segment.detail.empty() ? "" : " ", segment.detail.c_str());
    }
    std::printf("segments %lld corrupt %lld recovered_torn_tail %lld\n",
                static_cast<long long>(report->segments.size()),
                static_cast<long long>(report->corrupt_segments),
                static_cast<long long>(report->recovered_segments));
    if (!report->clean()) {
      std::fprintf(stderr, "FAIL: data_loss: segment damage beyond a torn "
                           "tail\n");
      return 1;
    }
    return 0;
  }
  // Opening a store creates its directory, so every check that needs no
  // store runs first and a failed command leaves nothing behind: put loads
  // its input, and get and compact refuse a directory that does not exist.
  dcs::BitWriter writer;
  if (op == "put") {
    const auto graph = dcs::LoadDirectedGraph(in);
    if (!graph.ok()) {
      std::fprintf(stderr, "cannot read directed graph from %s: %s\n",
                   in.c_str(), graph.status().ToString().c_str());
      return 1;
    }
    dcs::SerializeDirectedGraph(*graph, writer);
  } else {
    struct stat info;
    if (::stat(dir.c_str(), &info) != 0 || !S_ISDIR(info.st_mode)) {
      std::fprintf(stderr, "no store at %s\n", dir.c_str());
      return 1;
    }
  }
  auto store = dcs::SketchStore::Open(dir);
  if (!store.ok()) {
    std::fprintf(stderr, "cannot open store %s: %s\n", dir.c_str(),
                 store.status().ToString().c_str());
    return 1;
  }
  if (op == "put") {
    dcs::Status status = (*store)->Put(id, dcs::StreamKind::kDirectedGraph,
                                       writer.bytes(), writer.bit_count());
    if (status.ok()) status = (*store)->Seal();
    if (!status.ok()) {
      std::fprintf(stderr, "put failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("put object %d: %lld bits; store now holds %lld objects\n",
                id, static_cast<long long>(writer.bit_count()),
                static_cast<long long>((*store)->num_objects()));
    return 0;
  }
  if (op == "get") {
    const auto object = (*store)->Get(id);
    if (!object.ok()) {
      std::fprintf(stderr, "get failed: %s\n",
                   object.status().ToString().c_str());
      return 1;
    }
    if (object->kind != dcs::StreamKind::kDirectedGraph) {
      std::fprintf(stderr, "object %d holds a %s, not a directed graph\n",
                   id, dcs::StreamKindName(object->kind));
      return 1;
    }
    dcs::BitReader reader(object->bytes);
    const auto graph = dcs::DeserializeDirectedGraph(reader);
    if (!graph.ok()) {
      std::fprintf(stderr, "object %d does not decode: %s\n", id,
                   graph.status().ToString().c_str());
      return 1;
    }
    const dcs::Status saved = dcs::SaveDirectedGraph(*graph, out);
    if (!saved.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", out.c_str(),
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("got object %d: n=%d m=%lld -> %s\n", id,
                graph->num_vertices(),
                static_cast<long long>(graph->num_edges()), out.c_str());
    return 0;
  }
  const auto report = (*store)->Compact();
  if (!report.ok()) {
    std::fprintf(stderr, "compact failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("compacted: %lld -> %lld bytes, %lld superseded records "
              "dropped\n",
              static_cast<long long>(report->bytes_before),
              static_cast<long long>(report->bytes_after),
              static_cast<long long>(report->records_dropped));
  return 0;
}

// Removes a mkdtemp'd cluster scratch directory on *every* exit path —
// early usage errors, worker-spawn failures, and the normal return alike.
// The destructor sweeps whatever the directory actually contains (stale
// sockets from SIGKILLed workers, partially-created files) instead of a
// guessed name list, so a failed or partial run cannot leak
// /tmp/dcs_cluster_XXXXXX.
class ScopedSocketDir {
 public:
  explicit ScopedSocketDir(std::string path) : path_(std::move(path)) {}
  ScopedSocketDir(const ScopedSocketDir&) = delete;
  ScopedSocketDir& operator=(const ScopedSocketDir&) = delete;
  ~ScopedSocketDir() {
    if (path_.empty()) return;
    if (DIR* dir = ::opendir(path_.c_str())) {
      while (const dirent* entry = ::readdir(dir)) {
        const std::string name = entry->d_name;
        if (name == "." || name == "..") continue;
        std::remove((path_ + "/" + name).c_str());
      }
      ::closedir(dir);
    }
    ::rmdir(path_.c_str());
  }

 private:
  const std::string path_;
};

// dcs cluster — the multi-process chaos soak (DESIGN.md §14): spawn a
// worker fleet, drive replicated query traffic through the failover
// client while SIGKILLing workers at --kill-rate, and gate on the
// zero-wrong-bits invariant. Exit 1 if any completed answer differed from
// the single-process oracle or any loss surfaced as something other than
// kUnavailable/kResourceExhausted. With --store-root DIR each worker
// persists to DIR/worker<w> and respawns warm-load from disk, so repairs
// reattach instead of re-sending graphs.
int CmdCluster(const FlagMap& flags) {
  dcs::ClusterLoadOptions options;
#ifdef DCS_SERVER_DEFAULT_PATH
  options.server_binary =
      GetFlag(flags, "server", DCS_SERVER_DEFAULT_PATH);
#else
  options.server_binary = GetFlag(flags, "server", "./dcs_server");
#endif
  options.num_workers = GetInt(flags, "workers", 4);
  options.replication = GetInt(flags, "replication", 2);
  options.num_client_threads = GetInt(flags, "clients", 2);
  options.batches_per_thread = GetInt(flags, "batches", 40);
  options.batch_size = GetInt(flags, "batch", 8);
  options.kill_rate = GetDouble(flags, "kill-rate", 0.0);
  options.kill_interval_ms = GetInt(flags, "kill-interval-ms", 25);
  options.respawn_delay_ms = GetInt(flags, "respawn-delay-ms", 10);
  options.num_vertices = GetInt(flags, "n", 48);
  options.num_edges = GetInt(flags, "edges", 320);
  options.seed = static_cast<uint64_t>(GetInt(flags, "seed", 1));
  options.worker.num_shards = GetInt(flags, "shards", 2);
  options.worker.queue_capacity = GetInt(flags, "queue-capacity", 64);
  options.worker.warm_cache_entries = GetInt(flags, "warm-cache", 4096);
  options.store_root = GetFlag(flags, "store-root", "");
  std::string socket_dir = GetFlag(flags, "socket-dir", "");
  // Every bound is re-checked here, BEFORE any side effect: the same
  // bounds are enforced by ClusterLoadOptions::Check() with DCS_CHECK,
  // and an abort after mkdtemp would leak the scratch directory.
  if (options.kill_rate < 0 || options.kill_rate > 1) {
    std::fprintf(stderr, "--kill-rate must be in [0, 1]\n");
    return 2;
  }
  if (options.num_workers < 1 || options.replication < 1 ||
      options.num_client_threads < 1 || options.batches_per_thread < 1 ||
      options.batch_size < 1 || options.kill_interval_ms < 1 ||
      options.respawn_delay_ms < 0 || options.num_vertices < 2 ||
      options.num_vertices > dcs::ClusterWorker::kMaxVertices ||
      options.num_edges < 1 || options.worker.num_shards < 1 ||
      options.worker.queue_capacity < 1 ||
      options.worker.warm_cache_entries < 0) {
    std::fprintf(stderr,
                 "cluster flags out of range (workers/replication/clients/"
                 "batches/batch/kill-interval-ms/shards/queue-capacity >= 1, "
                 "respawn-delay-ms/warm-cache >= 0, "
                 "n in [2, %d], edges >= 1)\n",
                 dcs::ClusterWorker::kMaxVertices);
    return 2;
  }
  if (flags.RejectUnread()) return 2;
  if (!options.store_root.empty()) {
    // One level deep is enough: per-worker subdirectories are created by
    // SketchStore::Open inside the workers.
    if (::mkdir(options.store_root.c_str(), 0755) != 0 && errno != EEXIST) {
      std::fprintf(stderr, "cannot create store root %s: %s\n",
                   options.store_root.c_str(), std::strerror(errno));
      return 1;
    }
  }

  char dir_template[] = "/tmp/dcs_cluster_XXXXXX";
  std::unique_ptr<ScopedSocketDir> scratch;
  if (socket_dir.empty()) {
    if (::mkdtemp(dir_template) == nullptr) {
      std::fprintf(stderr, "cannot create socket directory: %s\n",
                   std::strerror(errno));
      return 1;
    }
    socket_dir = dir_template;
    scratch = std::make_unique<ScopedSocketDir>(socket_dir);
  }
  options.socket_dir = socket_dir;

  const auto report = dcs::RunClusterLoad(options);
  if (!report.ok()) {
    std::fprintf(stderr, "cluster soak failed to run: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("workers %d replication %d clients %d kill_rate %.2f\n",
              options.num_workers, options.replication,
              options.num_client_threads, options.kill_rate);
  std::printf(
      "batches ok %lld unavailable %lld resource_exhausted %lld "
      "other_error %lld\n",
      static_cast<long long>(report->batches_ok),
      static_cast<long long>(report->batches_unavailable),
      static_cast<long long>(report->batches_resource_exhausted),
      static_cast<long long>(report->batches_other_error));
  std::printf("kills %lld respawns %lld reattaches %lld\n",
              static_cast<long long>(report->kills),
              static_cast<long long>(report->respawns),
              static_cast<long long>(report->reattaches));
  std::printf("qps %.1f latency_p50_us %lld latency_p99_us %lld\n",
              report->qps, static_cast<long long>(report->latency_p50_us),
              static_cast<long long>(report->latency_p99_us));
  std::printf("wrong_bits %lld answers_bit_identical %s\n",
              static_cast<long long>(report->wrong_bits),
              report->answers_bit_identical() ? "true" : "false");
  if (!report->answers_bit_identical()) {
    std::fprintf(stderr,
                 "FAIL: a completed answer differed from the oracle\n");
    return 1;
  }
  if (report->batches_other_error > 0) {
    std::fprintf(stderr,
                 "FAIL: a loss surfaced as something other than "
                 "unavailable/resource_exhausted\n");
    return 1;
  }
  if (report->batches_ok == 0) {
    std::fprintf(stderr, "FAIL: no batch completed\n");
    return 1;
  }
  return 0;
}

void PrintUsage() {
  std::fprintf(stderr,
               "usage: dcs <generate|stats|mincut|sketch|localquery|encode|"
               "agm|trials|protocol|distributed|serve|stream|cluster|store> "
               "[--flag value ...] [--metrics-json FILE]\n");
}

// Writes the process-wide metrics snapshot to `path`. Returns 1 (runtime
// error) on I/O failure, 0 otherwise.
int WriteMetricsJson(const std::string& path, const std::string& command) {
  dcs::JsonValue root = dcs::JsonValue::MakeObject();
  root.Set("binary", "dcs");
  root.Set("command", command);
  root.Set("metrics_enabled", DCS_METRICS_ENABLED != 0);
  root.Set("metrics", dcs::metrics::Registry::Get().Snapshot().ToJson());
  const std::string text = root.Dump(2) + "\n";
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "cannot open %s for metrics output\n", path.c_str());
    return 1;
  }
  const bool ok =
      std::fwrite(text.data(), 1, text.size(), file) == text.size();
  if (std::fclose(file) != 0 || !ok) {
    std::fprintf(stderr, "failed to write metrics to %s\n", path.c_str());
    return 1;
  }
  return 0;
}

int RunCommand(const std::string& command, const FlagMap& flags) {
  if (command == "generate") return CmdGenerate(flags);
  if (command == "stats") return CmdStats(flags);
  if (command == "mincut") return CmdMinCut(flags);
  if (command == "sketch") return CmdSketch(flags);
  if (command == "localquery") return CmdLocalQuery(flags);
  if (command == "encode") return CmdEncode(flags);
  if (command == "agm") return CmdAgm(flags);
  if (command == "trials") return CmdTrials(flags);
  if (command == "protocol") return CmdProtocol(flags);
  if (command == "distributed") return CmdDistributed(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "stream") return CmdStream(flags);
  if (command == "cluster") return CmdCluster(flags);
  if (command == "store") return CmdStore(flags);
  PrintUsage();
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 2;
  }
  const std::string command = argv[1];
  const FlagMap flags = ParseFlags(argc, argv, 2);
  const std::string metrics_path = GetFlag(flags, "metrics-json", "");
  int rc = RunCommand(command, flags);
  // A subcommand that succeeds has refused every flag it does not read.
  DCS_CHECK(rc != 0 || flags.checked());
  if (!metrics_path.empty()) {
    // The snapshot is written even after a failing command (a failed run's
    // resource counts are exactly what one wants to inspect); a metrics
    // write failure only surfaces when the command itself succeeded.
    const int metrics_rc = WriteMetricsJson(metrics_path, command);
    if (rc == 0) rc = metrics_rc;
  }
  return rc;
}
