// e2ebench: one run of one workload of the end-to-end benchmark.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--out <dir>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics (a traced phase, the stage ladder and the tracing
// overhead). The last line of stdout is one JSON object with the keys
// correct, attempted, failed and metrics. Exits non-zero, without that
// line, when the run cannot be set up or measured.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/trace.h"
#include "workloads.h"

namespace {

// Every process-wide setting the numbers depend on, fixed here so that an
// inherited environment (a forced-spill memory budget, a thread override)
// cannot silently change what a workload measures. Workload-specific
// settings (shards, latencies, budgets, I/O threads) are passed explicitly
// in code and stamped in the output.
constexpr const char* kFixedEnv[][2] = {
    {"IMPATIENCE_THREADS", "2"},
    {"IMPATIENCE_IO_THREADS", "1"},
    {"IMPATIENCE_KERNEL_LEVEL", "avx512"},
    {"IMPATIENCE_TRACE", "0"},
    {"IMPATIENCE_MEMORY_BUDGET", "0"},
    {"IMPATIENCE_SPILL_FLUSHER_THREADS", "0"},
};
constexpr const char* kUnsetEnv[] = {"IMPATIENCE_FAULT_SEED",
                                     "IMPATIENCE_TRACE_BUFFER"};

void FixEnvironment() {
  for (const auto& kv : kFixedEnv) setenv(kv[0], kv[1], /*overwrite=*/1);
  for (const char* name : kUnsetEnv) unsetenv(name);
  // IMPATIENCE_TRACE is read before main(); undo whatever it enabled.
  impatience::trace::SetEnabled(false);
}

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out <dir>]\nworkloads:");
  for (const std::string& w : e2ebench::WorkloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2ebench::RunOptions options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0') return Usage();
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      options.trace = value[0] == '1';
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_workload) return Usage();
  FixEnvironment();

  e2ebench::RunReport report;
  std::string error;
  if (!e2ebench::RunWorkload(options, &report, &error)) {
    std::fprintf(stderr, "e2ebench: %s\n", error.c_str());
    return 1;
  }
  for (const e2ebench::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "e2ebench: %s is not finite\n", m.name.c_str());
      return 1;
    }
  }

  for (const auto& [key, value] : report.stamps) {
    std::printf("stamp %-22s %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& note : report.notes) {
    std::printf("note  %s\n", note.c_str());
  }
  for (const e2ebench::Metric& m : report.metrics) {
    std::printf("metric %-34s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const e2ebench::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
