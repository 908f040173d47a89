// perfbench_bin: runs one workload and prints its result. See
// perfbench/README.md for the workloads and metrics; perfbench/run.py
// builds this binary and the program, then calls it.
//
//   perfbench_bin <workload> --seed N --seconds S --trace 0|1
//                    --tools DIR --work DIR [--smoke] [--inject-wrong-verdict]
//   perfbench_bin digest <workload> --seed N [--smoke]
//   perfbench_bin selftest
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "gen.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out.flush());
}

int Cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_bin <analyze-exact|serve-mix|live-certified> --seed N "
               "--seconds S --trace 0|1 --tools DIR --work DIR [--smoke] "
               "[--inject-wrong-verdict]\n"
               "       perfbench_bin digest <workload> --seed N [--smoke]\n"
               "       perfbench_bin selftest\n");
  return 2;
}

bool KnownWorkload(const std::string& w) {
  return w == "analyze-exact" || w == "serve-mix" || w == "live-certified";
}

/// Prints the notes, then the result as one JSON line (the last line):
/// the per-layer metrics (dotted names, "layer.metric") of a traced run,
/// or the end-to-end metrics of an untraced one. run.py checks the names
/// and units against BENCHMARK.json.
int Report(const RunConfig& cfg, const RunResult& r) {
  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  std::string metrics;
  for (const auto& [name, m] : r.metrics) {
    if ((name.find('.') != std::string::npos) != cfg.trace) continue;
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", name.c_str());
      return 3;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    metrics += buf;
  }
  // A run that measured nothing is an error, not a result.
  if (r.attempted == 0) return 3;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              r.failed == 0 ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage();
  const std::string first = argv[1];
  if (first == "selftest") return SelfTest() == 0 ? 0 : 1;
  RunConfig cfg;
  int a = 1;
  const bool digest = first == "digest";
  if (digest) ++a;
  if (a >= argc) return Usage();
  cfg.workload = argv[a++];
  if (!KnownWorkload(cfg.workload)) return Usage();
  for (; a < argc; ++a) {
    const std::string opt = argv[a];
    auto value = [&]() -> const char* { return a + 1 < argc ? argv[++a] : nullptr; };
    const char* v = nullptr;
    if (opt == "--smoke") {
      cfg.smoke = true;
    } else if (opt == "--inject-wrong-verdict") {
      cfg.inject_wrong_verdict = true;
    } else if ((v = value()) == nullptr) {
      return Usage();
    } else if (opt == "--seed") {
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (opt == "--seconds") {
      cfg.seconds = std::strtod(v, nullptr);
    } else if (opt == "--trace") {
      cfg.trace = std::strcmp(v, "1") == 0;
    } else if (opt == "--tools") {
      cfg.tools_dir = v;
    } else if (opt == "--work") {
      cfg.work_dir = v;
    } else {
      return Usage();
    }
  }
  const uint64_t inputs = InputDigest(cfg.workload, cfg.seed, cfg.smoke);
  std::printf("inputs: workload=%s seed=%llu smoke=%d digest=%016llx\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.smoke ? 1 : 0,
              static_cast<unsigned long long>(inputs));
  if (digest) return 0;
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing to report from a build with assertions on "
                       "(not a Release build)\n");
  return 4;
#endif
  if (cfg.tools_dir.empty() || cfg.work_dir.empty() || !(cfg.seconds > 0)) return Usage();
  mkdir(cfg.work_dir.c_str(), 0755);
  std::printf("binary: compiler=gcc-%s build_type=%s cpus=%d\n", __VERSION__,
              PERFBENCH_BUILD_TYPE, Cpus());
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing to report from a %s build\n", PERFBENCH_BUILD_TYPE);
    return 4;
  }
  RunResult r;
  if (cfg.workload == "analyze-exact") {
    r = RunAnalyzeExact(cfg);
  } else if (cfg.workload == "serve-mix") {
    r = RunServeMix(cfg);
  } else {
    r = RunLiveCertified(cfg);
  }
  std::fflush(stdout);
  return Report(cfg, r);
}
