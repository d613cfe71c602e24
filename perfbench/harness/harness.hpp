// Shared pieces of the benchmark harness: timing, output checks, result
// fingerprints and the workload interface that the round loop in main.cpp
// runs.
//
// A workload is built once per set-up (its constructor is the set-up), then
// asked for rounds. One round is one fixed job — the same work every time —
// and returns a JSON sample with at least `wall_s`, `ops`, `attempted` and
// `failed`. perfbench/run.py turns the samples into the reported metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/arch/fault.hpp"
#include "src/obs/json.hpp"

namespace perfbench {

using lore::obs::Json;

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Named pass/fail checks of the program's outputs. Any failure makes the
/// run incorrect.
class Checks {
 public:
  void expect(bool ok, const std::string& name, const std::string& detail = "");
  bool ok() const { return failures_ == 0; }
  Json to_json() const;

 private:
  struct Entry {
    std::string name;
    std::size_t passed = 0;
    std::size_t failed = 0;
    std::string first_failure;
  };
  std::vector<Entry> entries_;
  std::size_t failures_ = 0;
};

/// FNV-1a, the hash every result fingerprint in the benchmark uses.
class Fnv {
 public:
  void bytes(const void* data, std::size_t n);
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof v);
  }
  void str(const std::string& s) {
    pod(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex64(std::uint64_t v);

/// Mix every field of every fault record plus its trial status.
void fingerprint_records(Fnv& fp, const std::vector<lore::arch::FaultRecord>& records,
                         const std::vector<lore::TrialStatus>& status);

/// Exact outcome counts of executed (kOk) trials.
struct OutcomeCounts {
  std::size_t benign = 0, sdc = 0, crash = 0, hang = 0, detected = 0;
  void add(const std::vector<lore::arch::FaultRecord>& records,
           const std::vector<lore::TrialStatus>& status);
  Json to_json() const;
};

/// Trials a campaign report counts as failed operations: final status
/// failed, timed out or skipped. Pruned trials are resolved, not failed.
std::size_t failed_trials(const lore::CampaignReport& report);

/// Every round of a workload must reproduce the first round's fingerprint.
class RoundPin {
 public:
  void check(const std::string& fp, Checks& checks, const char* name) {
    if (first_.empty()) first_ = fp;
    checks.expect(fp == first_, name, fp + " != " + first_);
  }
  const std::string& value() const { return first_; }

 private:
  std::string first_;
};

struct Options {
  std::uint64_t seed = 0;
  /// Scratch directory inside the checkout (checkpoint files).
  std::string workdir;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Run one job and return its sample.
  virtual Json round(Checks& checks) = 0;
  /// After the last round: fingerprint, exact counts, workload facts.
  virtual Json summary(Checks& checks) = 0;

  /// Set by the harness. A workload whose parts are short calls it between
  /// them, outside their timing, and leaves the seconds it returns out of
  /// its wall time: the harness times extra set-ups there.
  std::function<double()> between_parts;
};

std::unique_ptr<Workload> make_fi_plain(const Options& opt);
std::unique_ptr<Workload> make_fi_resilient(const Options& opt);
std::unique_ptr<Workload> make_crosslayer(const Options& opt);

/// Host fingerprint recorded beside every result: core count, measured
/// parallelism, a fixed scalar score, build type and SIMD dispatch.
Json host_fingerprint();

/// Peak resident set of this process in MB.
double self_peak_rss_mb();

}  // namespace perfbench
