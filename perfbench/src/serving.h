#ifndef PERFBENCH_SERVING_H_
#define PERFBENCH_SERVING_H_

// The serving processes under test, seen from outside: launch, the port
// they announce, their memory as /proc reports it, and the Metrics scrape
// they export.

#include <sys/types.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// One child daemon (hmmm_serverd or hmmm_coordd). The child is killed if
/// the benchmark dies; Stop() (also run by the destructor) sends SIGTERM,
/// escalates to SIGKILL after a grace period and reaps the child.
class ServingProcess {
 public:
  /// Starts `argv` with stdout on a pipe and stderr appended to
  /// `log_path`. Does not wait for the listening line.
  static hmmm::StatusOr<std::unique_ptr<ServingProcess>> Spawn(
      const std::vector<std::string>& argv, const std::string& log_path);

  ~ServingProcess();
  ServingProcess(const ServingProcess&) = delete;
  ServingProcess& operator=(const ServingProcess&) = delete;

  /// Reads stdout until the daemon prints `LISTENING port=<n>`.
  hmmm::Status AwaitListening(std::chrono::milliseconds timeout);

  uint16_t port() const { return port_; }
  std::string endpoint() const;
  pid_t pid() const { return pid_; }

  /// VmHWM of the process, in MB (2^20 bytes).
  double PeakRssMb() const;
  /// Resident MB of the process's mappings of *.hmms snapshot files.
  double MappedSnapshotMb() const;

  void Stop();

 private:
  ServingProcess(pid_t pid, int stdout_fd) : pid_(pid), stdout_fd_(stdout_fd) {}

  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  std::string pending_;
};

/// A parsed Prometheus text exposition: every sample line keyed by its
/// series name including the label set, as printed.
class Scrape {
 public:
  static Scrape Parse(const std::string& text);

  /// Sum over every series of the family `name` (any label set).
  double Sum(const std::string& name) const;
  /// Cumulative histogram buckets of the family `name`, summed over its
  /// label sets, as (upper bound, cumulative count) pairs ending with +Inf.
  std::vector<std::pair<double, double>> Buckets(const std::string& name) const;

  /// Series-wise difference `after - before` (counters and histograms of
  /// one process over a window).
  static Scrape Delta(const Scrape& after, const Scrape& before);
  /// Series-wise sum (the same family across processes).
  void Add(const Scrape& other);

 private:
  std::map<std::string, double> series_;
};

/// Median of a histogram from cumulative buckets, interpolating linearly
/// inside the bucket that holds it (the first bucket starts at 0).
double HistogramMedian(const std::vector<std::pair<double, double>>& buckets);

}  // namespace perfbench

#endif  // PERFBENCH_SERVING_H_
