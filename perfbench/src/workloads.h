// The three workloads. Each fills a RunResult: end-to-end metrics from an
// untraced run, or, with cfg.trace, per-layer metrics from a traced run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "common.h"

namespace perfbench {

/// `wydb_analyze <file> --exact --search-threads 4`, one system at a time.
RunResult RunAnalyzeExact(const RunConfig& cfg);
/// A closed loop of 4 connections to `wydb_serve --port`.
RunResult RunServeMix(const RunConfig& cfg);
/// RunLive, 4 threads, certified fast path then kDetect.
RunResult RunLiveCertified(const RunConfig& cfg);

/// Writes `text` to `path`; false on I/O failure.
bool WriteFile(const std::string& path, const std::string& text);

/// Number of online CPUs.
int Cpus();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
