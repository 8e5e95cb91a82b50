// Module census: every public header src/<dir>/<name>.h is included by a
// program, a bench or another module, not only by its own .cc and tests.
// A header no program reaches is an orphan module; it is deleted, or given
// a caller, instead of being kept alive by its tests alone.

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "gtest/gtest.h"

namespace dcs {
namespace {

// Orphans still open on the roadmap. Each entry goes when its module gets
// a caller or is deleted.
const std::set<std::string>& KnownOrphans() {
  static const std::set<std::string> kOrphans = {
      "comm/index_problem.h",
  };
  return kOrphans;
}

std::string ReadText(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

bool IsSourceFile(const std::filesystem::path& path) {
  const auto extension = path.extension();
  return extension == ".h" || extension == ".cc" || extension == ".cpp";
}

// The quoted path of every `#include "..."` line in `text`.
std::set<std::string> QuotedIncludes(const std::string& text) {
  std::set<std::string> includes;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t hash = line.find_first_not_of(" \t");
    if (hash == std::string::npos || line.compare(hash, 8, "#include") != 0) {
      continue;
    }
    const size_t open = line.find('"', hash + 8);
    if (open == std::string::npos) continue;
    const size_t close = line.find('"', open + 1);
    if (close == std::string::npos) continue;
    includes.insert(line.substr(open + 1, close - open - 1));
  }
  return includes;
}

// Non-test includers of each src/<dir>/<name>.h, keyed "<dir>/<name>.h".
// The header's own .cc does not count; tests/ is not scanned.
std::map<std::string, int> NonTestIncluderCounts() {
  const std::filesystem::path root(DCS_SOURCE_DIR);
  std::map<std::string, int> counts;
  for (const auto& dir : std::filesystem::directory_iterator(root / "src")) {
    if (!dir.is_directory()) continue;
    for (const auto& file : std::filesystem::directory_iterator(dir)) {
      if (file.path().extension() != ".h") continue;
      counts[dir.path().filename().string() + "/" +
             file.path().filename().string()] = 0;
    }
  }
  for (const char* tree : {"src", "bench", "tools", "examples", "bench_e2e"}) {
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(root / tree)) {
      if (!entry.is_regular_file() || !IsSourceFile(entry.path())) continue;
      for (const std::string& header : QuotedIncludes(ReadText(entry.path()))) {
        const auto it = counts.find(header);
        if (it == counts.end()) continue;
        // src/<dir>/<name>.cc including its own <dir>/<name>.h.
        const std::filesystem::path own_cc =
            (root / "src" / header).replace_extension(".cc");
        if (entry.path() == own_cc) continue;
        ++it->second;
      }
    }
  }
  return counts;
}

TEST(ModuleCensusTest, EveryHeaderHasANonTestIncluder) {
  const std::map<std::string, int> counts = NonTestIncluderCounts();
  ASSERT_FALSE(counts.empty());
  for (const auto& [header, includers] : counts) {
    if (KnownOrphans().count(header) != 0) continue;
    EXPECT_GT(includers, 0)
        << header << " is included by no program, bench or module outside "
        << "its own .cc and tests/: give it a caller or delete it";
  }
}

TEST(ModuleCensusTest, KnownOrphansAreStillOrphans) {
  const std::map<std::string, int> counts = NonTestIncluderCounts();
  for (const std::string& header : KnownOrphans()) {
    const auto it = counts.find(header);
    ASSERT_NE(it, counts.end()) << header << " is gone: drop its entry";
    EXPECT_EQ(it->second, 0)
        << header << " now has a non-test includer: drop its entry";
  }
}

}  // namespace
}  // namespace dcs
