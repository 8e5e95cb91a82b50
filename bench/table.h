// Console table helpers shared by the experiment benches. Each bench binary
// prints the experiment's table(s) — paper-claim vs measured — before
// running its google-benchmark timing section.

#ifndef DCS_BENCH_TABLE_H_
#define DCS_BENCH_TABLE_H_

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "json_writer.h"

namespace dcs::bench {

// Parses and strips "--threads N" / "--threads=N" from argv (see
// ConsumeStringFlag). Returns 1 when absent; a value that is not a
// positive integer is a usage error (exit 2).
inline int ConsumeThreadsFlag(int* argc, char** argv) {
  const std::string text = ConsumeStringFlag(argc, argv, "--threads", "1");
  char* end = nullptr;
  errno = 0;
  const long threads = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE ||
      threads < 1 || threads > INT_MAX) {
    std::fprintf(stderr, "--threads: '%s' is not a positive integer\n",
                 text.c_str());
    std::exit(2);
  }
  return static_cast<int>(threads);
}

// Prints a banner for one experiment section.
inline void PrintBanner(const std::string& experiment_id,
                        const std::string& title) {
  std::printf("\n================================================================================\n");
  std::printf("[%s] %s\n", experiment_id.c_str(), title.c_str());
  std::printf("================================================================================\n");
}

// Fixed-width row printing: columns are pre-formatted strings.
inline void PrintRow(const std::vector<std::string>& cells, int width = 14) {
  for (const std::string& cell : cells) {
    std::printf("%-*s", width, cell.c_str());
  }
  std::printf("\n");
}

inline void PrintRule(size_t columns, int width = 14) {
  std::printf("%s\n", std::string(columns * static_cast<size_t>(width), '-')
                          .c_str());
}

// Shorthand formatters.
inline std::string F(double value, int precision = 3) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

inline std::string I(int64_t value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%lld",
                static_cast<long long>(value));
  return buffer;
}

inline std::string E(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3g", value);
  return buffer;
}

}  // namespace dcs::bench

#endif  // DCS_BENCH_TABLE_H_
