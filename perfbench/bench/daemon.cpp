#include "bench/daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench/spans.hpp"
#include "common/error.hpp"

extern char** environ;

namespace perfbench {

namespace pt = perftrack;

ProcSample sample_process(pid_t pid) {
  const std::string dir =
      "/proc/" + (pid == 0 ? std::string("self") : std::to_string(pid));
  ProcSample sample;

  std::ifstream stat_file(dir + "/stat");
  std::string stat((std::istreambuf_iterator<char>(stat_file)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos)
    throw pt::IoError("cannot read " + dir + "/stat");
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int index = 3; index <= 15 && fields >> field; ++index)
    if (index >= 14) ticks += std::stod(field);
  sample.cpu_ms = ticks * 1000.0 / static_cast<double>(sysconf(_SC_CLK_TCK));

  std::ifstream status(dir + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      sample.peak_rss_mb = std::stod(line.substr(6)) * 1024.0 / 1e6;
    else if (line.rfind("Threads:", 0) == 0)
      sample.threads = std::stoull(line.substr(8));
  }
  return sample;
}

Daemon::Daemon(const std::string& exe, std::vector<std::string> args,
               const std::string& log_path) {
  argv_.push_back(exe);
  for (std::string& arg : args) argv_.push_back(std::move(arg));

  // Everything the child touches is prepared before fork(): after it, the
  // child may only make async-signal-safe calls.
  std::vector<char*> argv;
  for (std::string& arg : argv_) argv.push_back(arg.data());
  argv.push_back(nullptr);
  std::vector<char*> envp;
  for (char** env = environ; *env != nullptr; ++env)
    if (std::strncmp(*env, "PERFTRACK_CACHE=", 16) != 0) envp.push_back(*env);
  envp.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) throw pt::IoError("cannot open " + log_path);
  const pid_t parent = getpid();

  pid_ = fork();
  if (pid_ == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(log_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    execve(argv[0], argv.data(), envp.data());
    _exit(127);
  }
  ::close(log_fd);
  if (pid_ < 0) throw pt::Error("fork failed: " + std::string(strerror(errno)));
}

Daemon::~Daemon() {
  if (pid_ > 0 && status_ < 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &status_, 0);
  }
}

std::string Daemon::command_line() const {
  std::string out;
  for (const std::string& arg : argv_) out += (out.empty() ? "" : " ") + arg;
  return out;
}

std::unique_ptr<pt::serve::NdjsonClient> Daemon::connect(
    const std::string& socket, std::uint64_t timeout_ms) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_ms) * 1000000;
  // One attempt per client, and a receive deadline well inside the
  // benchmark's own time limit: a hung daemon fails the run instead of
  // stalling it.
  const pt::serve::RetryPolicy policy{.attempts = 1, .deadline_ms = 60000};
  for (;;) {
    try {
      auto client =
          std::make_unique<pt::serve::NdjsonClient>(socket, policy);
      if (client->call("ping").ok) return client;
    } catch (const pt::Error&) {
      // not listening yet
    }
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      status_ = status;
      throw pt::Error("perftrackd exited during startup");
    }
    if (now_ns() > deadline)
      throw pt::Error("perftrackd did not answer ping on " + socket);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

bool Daemon::shutdown(pt::serve::NdjsonClient& client,
                      std::uint64_t timeout_ms) {
  try {
    client.call("shutdown");
  } catch (const pt::Error&) {
    // the connection may close before the answer; the exit status decides
  }
  return wait_exit(timeout_ms);
}

bool Daemon::wait_exit(std::uint64_t timeout_ms) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_ms) * 1000000;
  while (status_ < 0) {
    int status = 0;
    const pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      status_ = status;
      break;
    }
    if (done < 0 || now_ns() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      status_ = status;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return WIFEXITED(status_) && WEXITSTATUS(status_) == 0;
}

}  // namespace perfbench
