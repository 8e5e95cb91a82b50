// Smoke tests of the `dcs` command-line tool (end-to-end through the shell).

#include <dirent.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>

#include "graph/generators.h"
#include "gtest/gtest.h"
#include "sketch/backend_registry.h"
#include "sketch/serialization.h"
#include "store/sketch_store.h"
#include "stream/binary_stream.h"
#include "util/bitio.h"
#include "util/json.h"
#include "util/random.h"

namespace {

std::string ReadFileToString(const std::string& path);

// Runs the CLI with the given arguments; returns the exit status.
int RunCli(const std::string& args) {
  const std::string command = std::string(DCS_CLI_PATH) + " " + args +
                              " > /dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WEXITSTATUS(status);
}

TEST(CliTest, NoArgsPrintsUsageAndFails) {
  EXPECT_NE(RunCli(""), 0);
}

TEST(CliTest, UnknownCommandFails) {
  EXPECT_NE(RunCli("frobnicate"), 0);
}

TEST(CliTest, GenerateStatsMincutPipeline) {
  const std::string graph = "/tmp/dcs_cli_test_graph.txt";
  EXPECT_EQ(RunCli("generate --type balanced --n 24 --beta 2 --seed 3 "
                   "--out " + graph),
            0);
  EXPECT_EQ(RunCli("stats --in " + graph + " --directed 1"), 0);
  EXPECT_EQ(RunCli("mincut --in " + graph + " --directed 1"), 0);
  EXPECT_EQ(RunCli("sketch --in " + graph + " --backend foreach "
                   "--epsilon 0.3"),
            0);
  EXPECT_EQ(RunCli("sketch --in " + graph + " --backend forall "
                   "--epsilon 0.3"),
            0);
}

TEST(CliTest, UndirectedPipeline) {
  const std::string graph = "/tmp/dcs_cli_test_dumbbell.txt";
  EXPECT_EQ(RunCli("generate --type dumbbell --n 20 --k 2 --out " + graph),
            0);
  EXPECT_EQ(RunCli("stats --in " + graph), 0);
  EXPECT_EQ(RunCli("mincut --in " + graph), 0);
  EXPECT_EQ(RunCli("localquery --in " + graph + " --epsilon 0.3"), 0);
}

TEST(CliTest, DirectedFlagIsReadByValue) {
  // --directed 0 loads the undirected file; only 0 and 1 are values.
  const std::string graph = "/tmp/dcs_cli_test_directed_flag.txt";
  EXPECT_EQ(RunCli("generate --type dumbbell --n 20 --k 2 --out " + graph),
            0);
  EXPECT_EQ(RunCli("stats --in " + graph + " --directed 0"), 0);
  EXPECT_EQ(RunCli("mincut --in " + graph + " --directed 0"), 0);
  EXPECT_EQ(RunCli("stats --in " + graph + " --directed 2"), 2);
  EXPECT_EQ(RunCli("mincut --in " + graph + " --directed -1"), 2);
  EXPECT_EQ(RunCli("stats --in " + graph + " --directed yes"), 2);
}

TEST(CliTest, MakeAndCacheSwitchesAreReadByValue) {
  // --make 0 replays --in instead of writing --out; only 0 and 1 are values.
  const std::string out = "/tmp/dcs_cli_test_make_zero.bin";
  const std::string missing = "/tmp/dcs_cli_test_make_zero_missing.bin";
  std::remove(out.c_str());
  std::remove(missing.c_str());
  EXPECT_EQ(RunCli("stream --make 0 --in " + missing), 1);
  // A replay does not read --make's flags, so it refuses them up front.
  EXPECT_EQ(RunCli("stream --make 0 --n 16 --updates 10 --out " + out +
                   " --in " + missing),
            2);
  std::FILE* written = std::fopen(out.c_str(), "rb");
  EXPECT_EQ(written, nullptr) << "--make 0 wrote " << out;
  if (written != nullptr) std::fclose(written);
  EXPECT_EQ(RunCli("stream --make 2 --n 16 --updates 10 --out " + out), 2);
  EXPECT_EQ(RunCli("serve --n 32 --rounds 1 --batch 8 --pool 4 --cache 2"),
            2);
}

TEST(CliTest, EncodeRoundTrips) {
  EXPECT_EQ(RunCli("encode --message hi"), 0);
}

TEST(CliTest, TrialsSubcommand) {
  EXPECT_EQ(RunCli("trials --kind forall --trials 6 --inv-eps-sq 4 "
                   "--beta 1 --noise 0.05 --threads 2"),
            0);
  EXPECT_EQ(RunCli("trials --kind forall --trials 4 --inv-eps-sq 4 "
                   "--beta 1 --mode enumerate"),
            0);
  EXPECT_EQ(RunCli("trials --kind foreach --trials 2 --probes 8 "
                   "--inv-eps 8 --sqrt-beta 1 --threads 2"),
            0);
  EXPECT_NE(RunCli("trials --kind nonsense"), 0);
  EXPECT_NE(RunCli("trials --kind forall --mode nonsense"), 0);
}

// --backend routes sketch/serve through the sparsifier backend registry.
// Every registered name must work end to end; a typo is a usage error (2)
// whose stderr lists the valid names.

TEST(CliTest, SketchBackendFlagRoutesEveryRegisteredBackend) {
  const std::string graph = "/tmp/dcs_cli_test_backend_graph.txt";
  ASSERT_EQ(RunCli("generate --type balanced --n 20 --beta 2 --seed 5 "
                   "--out " + graph),
            0);
  for (const dcs::BackendInfo& backend : dcs::RegisteredBackends()) {
    EXPECT_EQ(RunCli("sketch --in " + graph + " --backend " + backend.name +
                     " --epsilon 0.3 --beta 2 --median-boost 3"),
              0)
        << backend.name;
    // Out-of-range options fail the registry's option check: a usage
    // error, never a CHECK abort (134) inside a sketch constructor.
    for (const char* bad : {"--epsilon 0", "--epsilon 1.5", "--beta 0.5"}) {
      EXPECT_EQ(RunCli("sketch --in " + graph + " --backend " +
                       backend.name + " " + bad),
                2)
          << backend.name << " " << bad;
    }
  }
  // The removed --kind spelling is an unknown flag.
  EXPECT_EQ(RunCli("sketch --in " + graph + " --kind foreach"), 2);
}

TEST(CliTest, ServeBackendFlagRoutesTheRegistry) {
  EXPECT_EQ(RunCli("serve --n 16 --backend cut_balance --rounds 2 "
                   "--batch 16 --pool 8"),
            0);
  EXPECT_EQ(RunCli("serve --n 16 --backend importance --rounds 2 "
                   "--batch 16 --pool 8"),
            0);
  EXPECT_EQ(RunCli("serve --n 16 --backend nope --rounds 2 --batch 16"), 2);
}

TEST(CliTest, BackendTypoExitsTwoAndListsValidNames) {
  const std::string graph = "/tmp/dcs_cli_test_backend_graph.txt";
  ASSERT_EQ(RunCli("generate --type balanced --n 20 --beta 2 --seed 5 "
                   "--out " + graph),
            0);
  const std::string stderr_path = "/tmp/dcs_cli_test_backend_stderr.txt";
  const std::string command = std::string(DCS_CLI_PATH) + " sketch --in " +
                              graph + " --backend cut_blanace" +
                              " > /dev/null 2> " + stderr_path;
  const int status = std::system(command.c_str());
  EXPECT_EQ(WEXITSTATUS(status), 2);
  const std::string message = ReadFileToString(stderr_path);
  for (const dcs::BackendInfo& backend : dcs::RegisteredBackends()) {
    EXPECT_NE(message.find(backend.name), std::string::npos)
        << "stderr must list '" << backend.name << "': " << message;
  }
}

// Exit-code contract (tools/dcs_cli.cc): 0 success, 1 runtime/data error,
// 2 usage error. Bad inputs must map to the right code and never abort
// (an abort surfaces as 134, not 1/2).

TEST(CliTest, MissingInputFileExitsOne) {
  EXPECT_EQ(RunCli("mincut --in /nonexistent/graph.txt"), 1);
}

TEST(CliTest, BadFlagSyntaxExitsTwo) {
  EXPECT_EQ(RunCli("generate --out"), 2);  // flag without value
}

TEST(CliTest, NonNumericFlagValueExitsTwo) {
  EXPECT_EQ(RunCli("generate --type balanced --n notanumber "
                   "--out /tmp/dcs_cli_test_unused.txt"),
            2);
  EXPECT_EQ(RunCli("generate --type balanced --p 0.3x "
                   "--out /tmp/dcs_cli_test_unused.txt"),
            2);
}

TEST(CliTest, OutOfRangeFlagValuesExitTwo) {
  // strtol/strtod overflow (errno == ERANGE) is a usage error, not a
  // silently saturated value leaking into the math: integer flags...
  EXPECT_EQ(RunCli("generate --type balanced --n 99999999999999999999 "
                   "--out /tmp/dcs_cli_test_unused.txt"),
            2);
  // ...double flags overflowing to infinity...
  EXPECT_EQ(RunCli("generate --type balanced --n 8 --p 1e999 "
                   "--out /tmp/dcs_cli_test_unused.txt"),
            2);
  EXPECT_EQ(RunCli("trials --kind foreach --trials 1 --probes 1 "
                   "--noise 1e999"),
            2);
  EXPECT_EQ(RunCli("protocol --kind foreach --sketch-eps 1e999"), 2);
  // ...and literal non-finite values, which parse cleanly but are rejected
  // by the finiteness check.
  EXPECT_EQ(RunCli("generate --type balanced --n 8 --p inf "
                   "--out /tmp/dcs_cli_test_unused.txt"),
            2);
  EXPECT_EQ(RunCli("generate --type balanced --n 8 --p nan "
                   "--out /tmp/dcs_cli_test_unused.txt"),
            2);
}

TEST(CliTest, CorruptGraphFileExitsOne) {
  const std::string path = "/tmp/dcs_cli_test_corrupt.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  // Header promises two edges; the only edge has an out-of-range endpoint.
  std::fputs("D 3 2\n0 99 1.0\n", f);
  std::fclose(f);
  EXPECT_EQ(RunCli("stats --in " + path + " --directed 1"), 1);
  EXPECT_EQ(RunCli("mincut --in " + path + " --directed 1"), 1);
}

TEST(CliTest, TruncatedGraphFileExitsOne) {
  const std::string path = "/tmp/dcs_cli_test_truncated.txt";
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("U 4 3\n0 1 1.0\n", f);
  std::fclose(f);
  EXPECT_EQ(RunCli("stats --in " + path), 1);
}

// --metrics-json=FILE dumps the process metrics registry (DESIGN.md §8)
// after any subcommand. The tests below parse the file back with the
// library's own JSON parser and, when instrumentation is compiled in,
// check the paper's resource counts appear with the expected values.

std::string ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string text;
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    text.append(buffer, got);
  }
  std::fclose(f);
  return text;
}

// Parses the metrics file and checks the envelope fields shared by every
// subcommand. Returns the parsed document.
dcs::JsonValue ParseMetricsFile(const std::string& path,
                                const std::string& command) {
  const std::string text = ReadFileToString(path);
  EXPECT_FALSE(text.empty()) << "metrics file missing: " << path;
  auto parsed = dcs::ParseJson(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return dcs::JsonValue();
  const dcs::JsonValue& root = *parsed;
  EXPECT_TRUE(root.is_object());
  const dcs::JsonValue* binary = root.Find("binary");
  EXPECT_NE(binary, nullptr);
  if (binary != nullptr) {
    EXPECT_EQ(binary->string_value(), "dcs");
  }
  const dcs::JsonValue* cmd = root.Find("command");
  EXPECT_NE(cmd, nullptr);
  if (cmd != nullptr) {
    EXPECT_EQ(cmd->string_value(), command);
  }
  EXPECT_NE(root.Find("metrics_enabled"), nullptr);
  EXPECT_NE(root.Find("metrics"), nullptr);
  return std::move(parsed).value();
}

bool MetricsEnabled(const dcs::JsonValue& root) {
  const dcs::JsonValue* enabled = root.Find("metrics_enabled");
  return enabled != nullptr && enabled->is_bool() && enabled->bool_value();
}

TEST(CliTest, MetricsJsonReportsFourCutQueriesPerDecodedBit) {
  const std::string path = "/tmp/dcs_cli_test_metrics_trials.json";
  std::remove(path.c_str());
  ASSERT_EQ(RunCli("trials --kind foreach --trials 2 --probes 4 "
                   "--inv-eps 8 --sqrt-beta 1 --metrics-json=" + path),
            0);
  const dcs::JsonValue root = ParseMetricsFile(path, "trials");
  if (!MetricsEnabled(root)) return;  // OFF build: envelope checks only.
  const dcs::JsonValue* counters = root.Find("metrics")->Find("counters");
  ASSERT_NE(counters, nullptr);
  // 2 trials × 4 probes = 8 decoded bits, four cut queries each
  // (Lemma 3.2) — the end-to-end paper invariant in the CLI output.
  const dcs::JsonValue* decoded = counters->Find("foreach.bit.decoded");
  ASSERT_NE(decoded, nullptr);
  EXPECT_EQ(decoded->int_value(), 8);
  const dcs::JsonValue* queries = counters->Find("cutoracle.session.query");
  ASSERT_NE(queries, nullptr);
  EXPECT_EQ(queries->int_value(), 4 * 8);
}

TEST(CliTest, MetricsJsonRecordsSerializedSketchBits) {
  const std::string graph = "/tmp/dcs_cli_test_metrics_graph.txt";
  const std::string path = "/tmp/dcs_cli_test_metrics_sketch.json";
  std::remove(path.c_str());
  ASSERT_EQ(RunCli("generate --type balanced --n 16 --beta 2 --seed 7 "
                   "--out " + graph),
            0);
  // Space-separated flag form, exercising both --key=value and --key value.
  ASSERT_EQ(RunCli("sketch --in " + graph + " --backend foreach "
                   "--epsilon 0.3 --metrics-json " + path),
            0);
  const dcs::JsonValue root = ParseMetricsFile(path, "sketch");
  if (!MetricsEnabled(root)) return;
  const dcs::JsonValue* metrics = root.Find("metrics");
  const dcs::JsonValue* counters = metrics->Find("counters");
  ASSERT_NE(counters, nullptr);
  const dcs::JsonValue* written =
      counters->Find("serialization.envelope.written");
  ASSERT_NE(written, nullptr);
  EXPECT_GE(written->int_value(), 1);
  // The per-kind bit-size distribution for the sketch that was built.
  const dcs::JsonValue* distributions = metrics->Find("distributions");
  ASSERT_NE(distributions, nullptr);
  const dcs::JsonValue* bits = distributions->Find(
      "serialization.payload_bits.directed_foreach_sketch");
  ASSERT_NE(bits, nullptr);
  const dcs::JsonValue* count = bits->Find("count");
  ASSERT_NE(count, nullptr);
  EXPECT_GE(count->int_value(), 1);
  const dcs::JsonValue* sum = bits->Find("sum");
  ASSERT_NE(sum, nullptr);
  EXPECT_GT(sum->number_value(), 0);
}

TEST(CliTest, MetricsJsonWrittenEvenWhenCommandFails) {
  const std::string path = "/tmp/dcs_cli_test_metrics_fail.json";
  std::remove(path.c_str());
  EXPECT_EQ(RunCli("mincut --in /nonexistent/graph.txt --metrics-json=" +
                   path),
            1);
  const dcs::JsonValue root = ParseMetricsFile(path, "mincut");
  EXPECT_TRUE(root.is_object());
}

// Lossy-channel subcommands (DESIGN.md §9): `protocol` and `distributed`
// run fault-free and under --chaos-* flags, malformed chaos flags are
// usage errors, and a chaos run is a pure function of --chaos-seed.

// Runs the CLI capturing stdout (stderr discarded); returns the exit code.
int RunCliCapture(const std::string& args, std::string* out) {
  const std::string path = "/tmp/dcs_cli_test_capture.txt";
  const std::string command = std::string(DCS_CLI_PATH) + " " + args +
                              " > " + path + " 2> /dev/null";
  const int status = std::system(command.c_str());
  *out = ReadFileToString(path);
  return WEXITSTATUS(status);
}

TEST(CliTest, ServeSubcommand) {
  EXPECT_EQ(RunCli("serve --n 32 --rounds 3 --batch 64 --pool 8 "
                   "--seed 5"),
            0);
  EXPECT_EQ(RunCli("serve --n 32 --rounds 2 --batch 32 --pool 8 "
                   "--cache 0"),
            0);
  EXPECT_EQ(RunCli("serve --n 1"), 2);
  EXPECT_EQ(RunCli("serve --threads 0"), 2);
}

// A flag the subcommand never reads is a usage error, not silently
// ignored; --metrics-json is read by every subcommand.
TEST(CliTest, UnreadFlagExitsTwo) {
  EXPECT_EQ(RunCli("serve --n 16 --rounds 1 --batch 8 --pool 4 "
                   "--threads 2"),
            2);
  EXPECT_EQ(RunCli("serve --n 16 --rounds 1 --batch 8 --pool 4 --shard 8"),
            2);
  const std::string unused = "/tmp/dcs_cli_test_unused.txt";
  std::remove(unused.c_str());
  EXPECT_EQ(RunCli("generate --type balanced --nn 5 --out " + unused), 2);
  // The flag is refused before the file is written.
  std::FILE* written = std::fopen(unused.c_str(), "rb");
  EXPECT_EQ(written, nullptr);
  if (written != nullptr) std::fclose(written);
  EXPECT_EQ(RunCli("encode --message hi --metrics-json "
                   "/tmp/dcs_cli_test_unread_metrics.json"),
            0);
  const std::string stderr_path = "/tmp/dcs_cli_test_unread_stderr.txt";
  const int status = std::system(
      (std::string(DCS_CLI_PATH) +
       " encode --message hi --mesage typo > /dev/null 2> " + stderr_path)
          .c_str());
  EXPECT_EQ(WEXITSTATUS(status), 2);
  EXPECT_NE(ReadFileToString(stderr_path).find("--mesage"),
            std::string::npos);
}

// `sketch --backend K` prints, byte for byte, what the removed `--kind K`
// spelling printed: both ran Rng(seed) into the same sketch constructor.
// The forall sketch keeps every edge at this ε, so both seeds print alike.
TEST(CliTest, SketchBackendPrintsTheHistoricalKindOutput) {
  const std::string graph = "/tmp/dcs_cli_test_golden_graph.txt";
  ASSERT_EQ(RunCli("generate --type balanced --n 40 --beta 2 --seed 11 "
                   "--out " + graph),
            0);
  const std::string forall =
      "forall sketch at eps=0.300 beta=2.00: 23636 bits (graph: 34688)\n"
      "cut               exact     estimate    rel err\n"
      "#0              105.196      105.196     0.0000\n"
      "#1              108.352      108.352     0.0000\n"
      "#2              104.044      104.044     0.0000\n"
      "#3              106.455      106.455     0.0000\n"
      "#4               91.182       91.182     0.0000\n";
  const std::pair<std::string, std::string> cases[] = {
      {"--backend foreach --seed 1",
       "foreach sketch at eps=0.300 beta=2.00: 23300 bits (graph: 34688)\n"
       "cut               exact     estimate    rel err\n"
       "#0              105.196      105.691     0.0047\n"
       "#1              108.352      108.416     0.0006\n"
       "#2              104.044      105.466     0.0137\n"
       "#3              106.455      107.371     0.0086\n"
       "#4               91.182       91.302     0.0013\n"},
      {"--backend foreach --seed 7",
       "foreach sketch at eps=0.300 beta=2.00: 23384 bits (graph: 34688)\n"
       "cut               exact     estimate    rel err\n"
       "#0              105.196      105.971     0.0074\n"
       "#1              108.352      109.510     0.0107\n"
       "#2              104.044      104.839     0.0076\n"
       "#3              106.455      107.480     0.0096\n"
       "#4               91.182       92.224     0.0114\n"},
      {"--backend forall --seed 1", forall},
      {"--backend forall --seed 7", forall},
  };
  for (const auto& [args, golden] : cases) {
    std::string out;
    ASSERT_EQ(RunCliCapture("sketch --in " + graph + " " + args +
                                " --epsilon 0.3 --beta 2",
                            &out),
              0)
        << args;
    EXPECT_EQ(out, golden) << args;
  }
  // --backend defaults to foreach.
  std::string out;
  ASSERT_EQ(RunCliCapture("sketch --in " + graph + " --seed 1 --epsilon 0.3 "
                          "--beta 2",
                          &out),
            0);
  EXPECT_EQ(out, cases[0].second);
}

TEST(CliTest, ServeMetricsJsonCountsLogicalQueries) {
  const std::string path = "/tmp/dcs_cli_test_metrics_serve.json";
  std::remove(path.c_str());
  ASSERT_EQ(RunCli("serve --n 32 --rounds 2 --batch 50 --pool 10 "
                   "--metrics-json=" + path),
            0);
  const dcs::JsonValue root = ParseMetricsFile(path, "serve");
  if (!MetricsEnabled(root)) return;
  const dcs::JsonValue* counters = root.Find("metrics")->Find("counters");
  ASSERT_NE(counters, nullptr);
  // 2 rounds × 50 queries, every one logical whether cached or not; the
  // 10 distinct sides miss once each and hit for the remaining 90.
  const dcs::JsonValue* logical = counters->Find("serve.query.logical");
  ASSERT_NE(logical, nullptr);
  EXPECT_EQ(logical->int_value(), 100);
  const dcs::JsonValue* misses = counters->Find("serve.cache.misses");
  ASSERT_NE(misses, nullptr);
  EXPECT_EQ(misses->int_value(), 10);
  const dcs::JsonValue* hits = counters->Find("serve.cache.hits");
  ASSERT_NE(hits, nullptr);
  EXPECT_EQ(hits->int_value(), 90);
}

TEST(CliTest, StreamMakeAndReplayPipeline) {
  const std::string stream = "/tmp/dcs_cli_test_updates.bin";
  EXPECT_EQ(RunCli("stream --make 1 --n 64 --updates 2000 --delete-frac 0.2 "
                   "--seed 5 --out " + stream),
            0);
  // Replay serially, multi-producer, and with k-connectivity snapshots —
  // all against the same stream file.
  EXPECT_EQ(RunCli("stream --in " + stream + " --epochs 2"), 0);
  EXPECT_EQ(RunCli("stream --in " + stream +
                   " --inserters 2 --shards 4 --gutter 64"),
            0);
  EXPECT_EQ(RunCli("stream --in " + stream + " --k 3 --epochs 2"), 0);
}

TEST(CliTest, StreamReplayDigestIdenticalAcrossInserters) {
  const std::string stream = "/tmp/dcs_cli_test_updates_digest.bin";
  ASSERT_EQ(RunCli("stream --make 1 --n 48 --updates 1500 --seed 9 "
                   "--out " + stream),
            0);
  std::string serial, parallel;
  ASSERT_EQ(RunCliCapture("stream --in " + stream + " --inserters 1",
                          &serial),
            0);
  ASSERT_EQ(RunCliCapture("stream --in " + stream +
                              " --inserters 4 --gutter 32",
                          &parallel),
            0);
  // Last line is "final digest <hex>": it must not depend on inserters.
  const auto last_line = [](const std::string& text) {
    const size_t end = text.find_last_not_of('\n');
    const size_t start = text.rfind('\n', end);
    return text.substr(start + 1, end - start);
  };
  EXPECT_EQ(last_line(serial), last_line(parallel));
  EXPECT_NE(serial.find("final digest"), std::string::npos);
}

TEST(CliTest, StreamMissingOrCorruptInputExitsOne) {
  EXPECT_EQ(RunCli("stream --in /nonexistent/updates.bin"), 1);
  const std::string path = "/tmp/dcs_cli_test_corrupt_updates.bin";
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  const char junk[] = "not an edge stream";
  std::fwrite(junk, 1, sizeof junk, file);
  std::fclose(file);
  EXPECT_EQ(RunCli("stream --in " + path), 1);
}

TEST(CliTest, StreamOneVertexInputExitsOne) {
  // A valid, checksummed stream over one vertex: the format allows it, the
  // ingestor needs two vertices, so replay rejects the input (exit 1)
  // instead of aborting.
  const std::string path = "/tmp/dcs_cli_test_one_vertex.bin";
  const std::string stderr_path = "/tmp/dcs_cli_test_one_vertex.err";
  ASSERT_TRUE(dcs::BinaryStreamWriter(1).WriteFile(path).ok());
  const std::string command = std::string(DCS_CLI_PATH) + " stream --in " +
                              path + " > /dev/null 2> " + stderr_path;
  EXPECT_EQ(WEXITSTATUS(std::system(command.c_str())), 1);
  EXPECT_NE(ReadFileToString(stderr_path).find("invalid_argument"),
            std::string::npos);
}

TEST(CliTest, StreamBadFlagValuesExitTwo) {
  EXPECT_EQ(RunCli("stream --make 1 --n 1"), 2);
  EXPECT_EQ(RunCli("stream --make 1 --delete-frac 1.5"), 2);
  EXPECT_EQ(RunCli("stream --in whatever --inserters 0"), 2);
}

TEST(CliChaosTest, ProtocolSubcommandRunsFaultFreeAndUnderChaos) {
  EXPECT_EQ(RunCli("protocol --kind foreach --probes 8 --seed 3"), 0);
  EXPECT_EQ(RunCli("protocol --kind forall --trials 4 --seed 3"), 0);
  EXPECT_EQ(RunCli("protocol --kind foreach --probes 8 --seed 3 "
                   "--chaos-seed 7 --chaos-drop 0.2 --chaos-flip 0.05"),
            0);
  EXPECT_EQ(RunCli("protocol --kind nonsense"), 2);
}

TEST(CliChaosTest, DistributedSubcommandRunsFaultFreeAndUnderChaos) {
  const std::string graph = "/tmp/dcs_cli_test_chaos_graph.txt";
  ASSERT_EQ(RunCli("generate --type dumbbell --n 16 --k 3 --out " + graph),
            0);
  EXPECT_EQ(RunCli("distributed --in " + graph + " --servers 3 --seed 5"),
            0);
  EXPECT_EQ(RunCli("distributed --in " + graph + " --servers 3 --seed 5 "
                   "--chaos-seed 9 --chaos-drop 0.2"),
            0);
  EXPECT_EQ(RunCli("distributed --in /nonexistent/graph.txt"), 1);
  EXPECT_EQ(RunCli("distributed --in " + graph + " --servers 0"), 2);
}

TEST(CliChaosTest, MalformedChaosFlagsExitTwo) {
  EXPECT_EQ(RunCli("protocol --chaos-drop=1.5"), 2);   // rate > 1
  EXPECT_EQ(RunCli("protocol --chaos-drop=-0.1"), 2);  // rate < 0
  EXPECT_EQ(RunCli("protocol --chaos-rounds 0"), 2);   // no deadline budget
  EXPECT_EQ(RunCli("protocol --chaos-drop notarate"), 2);
}

TEST(CliChaosTest, SameChaosSeedPrintsIdenticalOutput) {
  const std::string args =
      "protocol --kind foreach --probes 16 --seed 4 "
      "--chaos-seed 11 --chaos-drop 0.3 --chaos-flip 0.1";
  std::string first, second;
  ASSERT_EQ(RunCliCapture(args, &first), 0);
  ASSERT_EQ(RunCliCapture(args, &second), 0);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // A recovered chaos run decodes bit-identically to the fault-free run:
  // same protocol line, more transport bits.
  std::string fault_free;
  ASSERT_EQ(RunCliCapture("protocol --kind foreach --probes 16 --seed 4",
                          &fault_free),
            0);
  const std::string decode_line = first.substr(0, first.find('\n'));
  EXPECT_EQ(fault_free.substr(0, fault_free.find('\n')), decode_line);
}

// Counts /tmp entries carrying the cluster subcommand's scratch prefix.
int CountClusterScratchDirs() {
  int count = 0;
  DIR* dir = ::opendir("/tmp");
  if (dir == nullptr) return -1;
  while (struct dirent* entry = ::readdir(dir)) {
    if (std::strncmp(entry->d_name, "dcs_cluster_", 12) == 0) ++count;
  }
  ::closedir(dir);
  return count;
}

TEST(CliClusterTest, ForcedFailuresLeaveNoScratchDirectoryBehind) {
  const int before = CountClusterScratchDirs();
  ASSERT_GE(before, 0);
  // Worker spawn failure after the scratch directory exists (exit 1): the
  // named server binary is not executable.
  EXPECT_EQ(RunCli("cluster --server /nonexistent/dcs_server --workers 2 "
                   "--clients 1 --batches 1 --n 16 --edges 40"),
            1);
  // Flag validation failure, rejected before any scratch state (exit 2).
  EXPECT_EQ(RunCli("cluster --workers 0"), 2);
  // A graph larger than a worker registers (ClusterWorker::kMaxVertices)
  // is refused up front too, before any worker is spawned.
  EXPECT_EQ(RunCli("cluster --n 8388609"), 2);
  // So is an unknown flag: no worker runs and no soak result is printed.
  std::string out;
  EXPECT_EQ(RunCliCapture("cluster --execution-delay-ms 5 --workers 1 "
                          "--replication 1 --clients 1 --batches 1 --n 16 "
                          "--edges 40",
                          &out),
            2);
  EXPECT_EQ(out.find("answers_bit_identical"), std::string::npos) << out;
  EXPECT_EQ(CountClusterScratchDirs(), before);
}

// The contents of every file in `dir`, keyed by name.
std::map<std::string, std::string> ReadDirectory(const std::string& dir) {
  std::map<std::string, std::string> files;
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return files;
  while (const dirent* entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    files[name] = ReadFileToString(dir + "/" + name);
  }
  ::closedir(handle);
  return files;
}

TEST(CliStoreTest, PutGetFsckCompactRoundTrip) {
  const std::string graph = "/tmp/dcs_cli_test_store_graph.txt";
  const std::string out = "/tmp/dcs_cli_test_store_out.txt";
  const std::string dir = "/tmp/dcs_cli_test_store";
  std::system(("rm -rf '" + dir + "'").c_str());
  ASSERT_EQ(RunCli("generate --type balanced --n 24 --beta 2 --seed 7 "
                   "--out " + graph),
            0);
  ASSERT_EQ(RunCli("store --dir " + dir + " --op put --id 3 --in " + graph),
            0);
  ASSERT_EQ(RunCli("store --dir " + dir + " --op get --id 3 --out " + out),
            0);
  EXPECT_EQ(ReadFileToString(out), ReadFileToString(graph));
  EXPECT_EQ(RunCli("store --dir " + dir + " --op fsck"), 0);
  // An unknown flag is refused before the store is read or written.
  const auto files = ReadDirectory(dir);
  std::string stdout_text;
  EXPECT_EQ(RunCliCapture("store --dir " + dir + " --op fsck --id 3",
                          &stdout_text),
            2);
  EXPECT_EQ(stdout_text, "");
  EXPECT_EQ(RunCliCapture("store --dir " + dir + " --op compact --bogus 1",
                          &stdout_text),
            2);
  EXPECT_EQ(stdout_text, "");
  EXPECT_EQ(ReadDirectory(dir), files);
  EXPECT_EQ(RunCli("store --dir " + dir + " --op compact"), 0);
  EXPECT_NE(ReadDirectory(dir), files);
  EXPECT_EQ(RunCli("store --dir " + dir + " --op get --id 99 --out " + out),
            1);
  EXPECT_EQ(RunCli("store --dir " + dir + " --op frobnicate"), 2);
  EXPECT_EQ(RunCli("store --op fsck"), 2);  // missing --dir
  std::system(("rm -rf '" + dir + "'").c_str());
}

bool DirectoryExists(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return false;
  ::closedir(handle);
  return true;
}

// A store command that fails leaves no directory behind: put reads its
// input before the store is opened, and get and compact need a store.
TEST(CliStoreTest, FailedCommandsCreateNoDirectory) {
  const std::string dir = "/tmp/dcs_cli_test_store_absent";
  const std::string out = "/tmp/dcs_cli_test_store_absent_out.txt";
  std::system(("rm -rf '" + dir + "'").c_str());
  EXPECT_EQ(RunCli("store --dir " + dir +
                   " --op put --id 1 --in /nonexistent/graph.txt"),
            1);
  EXPECT_FALSE(DirectoryExists(dir));
  EXPECT_EQ(RunCli("store --dir " + dir + " --op get --id 1 --out " + out),
            1);
  EXPECT_FALSE(DirectoryExists(dir));
  EXPECT_EQ(RunCli("store --dir " + dir + " --op compact"), 1);
  EXPECT_FALSE(DirectoryExists(dir));
  std::system(("rm -rf '" + dir + "'").c_str());
}

TEST(CliStoreTest, FsckOfHeaderDamageBeforeIntactRecordsExitsOne) {
  const std::string dir = "/tmp/dcs_cli_test_store_damaged";
  const std::string segment = dir + "/segment-000001.seg";
  const std::string out = "/tmp/dcs_cli_test_store_damaged_out.txt";
  std::system(("rm -rf '" + dir + "'").c_str());
  {
    auto store = dcs::SketchStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    dcs::Rng rng(5);
    for (int id = 0; id < 3; ++id) {
      dcs::BitWriter writer;
      dcs::SerializeDirectedGraph(
          dcs::RandomBalancedDigraph(12, 0.5, 2.0, rng), writer);
      ASSERT_TRUE((*store)
                      ->Put(id, dcs::StreamKind::kDirectedGraph,
                            writer.bytes(), writer.bit_count())
                      .ok());
    }
    // No Seal: the segment is left unsealed, as a killed worker leaves it.
  }
  EXPECT_EQ(RunCli("store --dir " + dir + " --op fsck"), 0);
  // Flip one bit of record 0's object id: its header no longer verifies,
  // but records 1 and 2 after it do, so this is damage, not a torn tail.
  std::FILE* file = std::fopen(segment.c_str(), "r+b");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fseek(file, 3, SEEK_SET), 0);
  const int byte = std::fgetc(file);
  ASSERT_NE(byte, EOF);
  ASSERT_EQ(std::fseek(file, 3, SEEK_SET), 0);
  std::fputc(byte ^ 0x01, file);
  ASSERT_EQ(std::fclose(file), 0);
  const std::string damaged = ReadFileToString(segment);
  EXPECT_EQ(RunCli("store --dir " + dir + " --op fsck"), 1);
  // Opening the store for a read refuses too, and truncates nothing.
  EXPECT_EQ(RunCli("store --dir " + dir + " --op get --id 2 --out " + out),
            1);
  EXPECT_EQ(ReadFileToString(segment), damaged);
  std::system(("rm -rf '" + dir + "'").c_str());
  std::remove(out.c_str());
}

}  // namespace
