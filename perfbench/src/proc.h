// Child processes of the benchmark: the program's CLI tools, started
// with posix_spawn and always reaped, so no run leaves a process behind.
#ifndef PERFBENCH_PROC_H_
#define PERFBENCH_PROC_H_

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

struct ChildRun {
  int exit_code = -1;  ///< -1 when the child did not exit normally.
  std::string output;  ///< stdout and stderr, interleaved.
  double wall_us = 0;  ///< Spawn to reap.
  long maxrss_kb = 0;  ///< The child's peak RSS, from wait4.
};

/// Runs argv to completion, capturing its output.
bool RunChild(const std::vector<std::string>& argv, ChildRun* out);

/// Starts argv in the background with stdout and stderr sent to `log`.
pid_t StartChild(const std::vector<std::string>& argv, const std::string& log);

/// SIGTERM, then SIGKILL after `grace_ms`; always reaps. Returns the exit
/// code (-1 when killed by a signal).
int StopChild(pid_t pid, int grace_ms);

/// VmHWM (peak resident set) of a live process, in KiB; 0 if unreadable.
long PeakRssKb(pid_t pid);

}  // namespace perfbench

#endif  // PERFBENCH_PROC_H_
