#include "proc.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <fstream>
#include <thread>

#include "common.h"

extern char** environ;

namespace perfbench {
namespace {

std::vector<char*> Argv(const std::vector<std::string>& argv) {
  std::vector<char*> out;
  for (const std::string& a : argv) out.push_back(const_cast<char*>(a.c_str()));
  out.push_back(nullptr);
  return out;
}

int ExitCode(int status) { return WIFEXITED(status) ? WEXITSTATUS(status) : -1; }

}  // namespace

bool RunChild(const std::vector<std::string>& argv, ChildRun* out) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return false;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 2);
  std::vector<char*> args = Argv(argv);
  const auto t0 = Clock::now();
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    return false;
  }
  out->output.clear();
  char buf[65536];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof(buf));
    if (n > 0) {
      out->output.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  struct rusage ru {};
  while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  out->wall_us = MicrosBetween(t0, Clock::now());
  out->exit_code = ExitCode(status);
  out->maxrss_kb = ru.ru_maxrss;
  return true;
}

pid_t StartChild(const std::vector<std::string>& argv, const std::string& log) {
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  std::vector<char*> args = Argv(argv);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  return rc == 0 ? pid : -1;
}

int StopChild(pid_t pid, int grace_ms) {
  kill(pid, SIGTERM);
  int status = 0;
  const auto deadline = Clock::now() + std::chrono::milliseconds(grace_ms);
  for (;;) {
    const pid_t r = waitpid(pid, &status, WNOHANG);
    if (r == pid) return ExitCode(status);
    if (r < 0 && errno != EINTR) return -1;
    if (Clock::now() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  kill(pid, SIGKILL);
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return -1;
}

long PeakRssKb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      long kb = 0;
      in >> kb;
      return kb;
    }
    in.ignore(1 << 20, '\n');
  }
  return 0;
}

}  // namespace perfbench
