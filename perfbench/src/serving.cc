#include "serving.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Reads the kB figure of a "Key:   123 kB" line.
double KbField(const std::string& line) {
  const size_t colon = line.find(':');
  return colon == std::string::npos ? 0.0
                                    : std::strtod(line.c_str() + colon + 1, nullptr);
}

}  // namespace

hmmm::StatusOr<std::unique_ptr<ServingProcess>> ServingProcess::Spawn(
    const std::vector<std::string>& argv, const std::string& log_path) {
  // Everything the child touches is prepared before fork: between fork and
  // exec only async-signal-safe calls are allowed.
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  const int null_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  int fds[2];
  if (log_fd < 0 || null_fd < 0 || ::pipe2(fds, O_CLOEXEC) != 0) {
    if (log_fd >= 0) ::close(log_fd);
    if (null_fd >= 0) ::close(null_fd);
    return hmmm::Status::IOError("cannot prepare the daemon's pipes: " +
                                 std::string(std::strerror(errno)));
  }
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(null_fd, STDIN_FILENO);
    ::dup2(fds[1], STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  ::close(log_fd);
  ::close(null_fd);
  if (pid < 0) {
    ::close(fds[0]);
    return hmmm::Status::IOError("fork failed: " + std::string(std::strerror(errno)));
  }
  return std::unique_ptr<ServingProcess>(new ServingProcess(pid, fds[0]));
}

ServingProcess::~ServingProcess() { Stop(); }

hmmm::Status ServingProcess::AwaitListening(std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  static constexpr char kPrefix[] = "LISTENING port=";
  for (;;) {
    const size_t at = pending_.find(kPrefix);
    if (at != std::string::npos && pending_.find('\n', at) != std::string::npos) {
      port_ = static_cast<uint16_t>(std::atoi(pending_.c_str() + at + sizeof(kPrefix) - 1));
      return hmmm::Status::OK();
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
    if (left.count() <= 0) return hmmm::Status::IOError("daemon did not start listening in time");
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left.count()));
    if (ready < 0 && errno != EINTR) return hmmm::Status::IOError("poll failed");
    if (ready <= 0) continue;
    char buffer[512];
    const ssize_t n = ::read(stdout_fd_, buffer, sizeof(buffer));
    if (n == 0) return hmmm::Status::IOError("daemon exited before listening");
    if (n < 0) {
      if (errno == EINTR) continue;
      return hmmm::Status::IOError("reading the daemon's stdout failed");
    }
    pending_.append(buffer, static_cast<size_t>(n));
  }
}

std::string ServingProcess::endpoint() const {
  return "127.0.0.1:" + std::to_string(port_);
}

double ServingProcess::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return KbField(line) / 1024.0;
  }
  return 0.0;
}

double ServingProcess::MappedSnapshotMb() const {
  std::ifstream smaps("/proc/" + std::to_string(pid_) + "/smaps");
  std::string line;
  bool in_snapshot = false;
  double kb = 0.0;
  while (std::getline(smaps, line)) {
    const size_t space = line.find(' ');
    const std::string first = line.substr(0, space);
    if (!first.empty() && first.back() == ':') {
      if (in_snapshot && first == "Rss:") kb += KbField(line);
      continue;
    }
    // A mapping header: "start-end perms offset dev inode [path]".
    const size_t suffix = line.rfind(".hmms");
    in_snapshot = suffix != std::string::npos && suffix + 5 == line.size();
  }
  return kb / 1024.0;
}

void ServingProcess::Stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    int status = 0;
    pid_t done = 0;
    while ((done = ::waitpid(pid_, &status, WNOHANG)) == 0 && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (done == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

Scrape Scrape::Parse(const std::string& text) {
  Scrape scrape;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    scrape.series_[line.substr(0, space)] = std::strtod(line.c_str() + space + 1, nullptr);
  }
  return scrape;
}

double Scrape::Sum(const std::string& name) const {
  double total = 0.0;
  for (const auto& [key, value] : series_) {
    if (key == name || key.rfind(name + "{", 0) == 0) total += value;
  }
  return total;
}

std::vector<std::pair<double, double>> Scrape::Buckets(const std::string& name) const {
  // Series of every label set are merged bucket by bucket.
  const std::string prefix = name + "_bucket{";
  std::map<double, double> merged;
  for (const auto& [key, value] : series_) {
    if (key.rfind(prefix, 0) != 0) continue;
    const size_t le = key.find("le=\"", prefix.size() - 1);
    if (le == std::string::npos) continue;
    merged[std::strtod(key.c_str() + le + 4, nullptr)] += value;
  }
  return {merged.begin(), merged.end()};
}

Scrape Scrape::Delta(const Scrape& after, const Scrape& before) {
  Scrape delta;
  for (const auto& [key, value] : after.series_) {
    const auto old = before.series_.find(key);
    delta.series_[key] = value - (old == before.series_.end() ? 0.0 : old->second);
  }
  return delta;
}

void Scrape::Add(const Scrape& other) {
  for (const auto& [key, value] : other.series_) series_[key] += value;
}

double HistogramMedian(const std::vector<std::pair<double, double>>& buckets) {
  if (buckets.empty() || buckets.back().second <= 0.0) return 0.0;
  const double target = buckets.back().second / 2.0;
  double lower = 0.0;
  double below = 0.0;
  for (const auto& [bound, cumulative] : buckets) {
    if (cumulative >= target) {
      if (std::isinf(bound)) return lower;
      return lower + (bound - lower) * (target - below) / (cumulative - below);
    }
    lower = bound;
    below = cumulative;
  }
  return lower;
}

}  // namespace perfbench
