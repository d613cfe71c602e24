#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <thread>

#include "src/common/kernels.hpp"

namespace perfbench {

void Checks::expect(bool ok, const std::string& name, const std::string& detail) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const Entry& e) { return e.name == name; });
  if (it == entries_.end()) {
    entries_.emplace_back();
    it = entries_.end() - 1;
    it->name = name;
  }
  if (ok) {
    ++it->passed;
    return;
  }
  if (it->failed++ == 0) it->first_failure = detail;
  ++failures_;
}

Json Checks::to_json() const {
  Json arr = Json::array();
  for (const Entry& e : entries_) {
    Json j = Json::object();
    j["name"] = e.name;
    j["passed"] = e.passed;
    j["failed"] = e.failed;
    if (e.failed) j["first_failure"] = e.first_failure;
    arr.push_back(std::move(j));
  }
  return arr;
}

void Fnv::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ULL;
  }
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void fingerprint_records(Fnv& fp, const std::vector<lore::arch::FaultRecord>& records,
                         const std::vector<lore::TrialStatus>& status) {
  fp.pod(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    fp.pod(static_cast<std::uint8_t>(r.site.target));
    fp.pod(static_cast<std::uint64_t>(r.site.index));
    fp.pod(r.site.bit);
    fp.pod(r.site.cycle);
    fp.pod(static_cast<std::uint8_t>(r.outcome));
    fp.pod(r.active_instruction);
    fp.pod(r.trial_seed);
    fp.pod(static_cast<std::uint8_t>(i < status.size() ? status[i] : lore::TrialStatus::kOk));
  }
}

void OutcomeCounts::add(const std::vector<lore::arch::FaultRecord>& records,
                        const std::vector<lore::TrialStatus>& status) {
  using lore::arch::Outcome;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i < status.size() && status[i] != lore::TrialStatus::kOk) continue;
    switch (records[i].outcome) {
      case Outcome::kBenign: ++benign; break;
      case Outcome::kSdc: ++sdc; break;
      case Outcome::kCrash: ++crash; break;
      case Outcome::kHang: ++hang; break;
      case Outcome::kDetected: ++detected; break;
    }
  }
}

Json OutcomeCounts::to_json() const {
  Json j = Json::object();
  j["benign"] = benign;
  j["sdc"] = sdc;
  j["crash"] = crash;
  j["hang"] = hang;
  j["detected"] = detected;
  return j;
}

std::size_t failed_trials(const lore::CampaignReport& report) {
  return report.failed + report.timeouts + report.skipped;
}

namespace {

// A fixed dependent multiply-xor chain: no memory traffic, no vectorization,
// so it measures one core's scalar speed.
std::uint64_t scalar_spin(std::uint64_t iterations) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    h ^= i;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Json host_fingerprint() {
  constexpr std::uint64_t kIterations = 20'000'000;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  volatile std::uint64_t sink = 0;

  // Best of three, so one preempted sample does not define the host.
  double single = 1e30;
  double team = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    double t0 = now_s();
    sink = sink + scalar_spin(kIterations);
    single = std::min(single, now_s() - t0);

    std::vector<std::uint64_t> out(nproc);
    t0 = now_s();
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < nproc; ++t)
      threads.emplace_back([&out, t] { out[t] = scalar_spin(kIterations); });
    for (auto& th : threads) th.join();
    team = std::min(team, now_s() - t0);
    for (const std::uint64_t v : out) sink = sink + v;
  }

  Json j = Json::object();
  j["nproc"] = nproc;
  j["parallelism"] = static_cast<double>(nproc) * single / team;
  j["scalar_score"] = static_cast<double>(kIterations) / single / 1e6;
  j["build_type"] = PERFBENCH_BUILD_TYPE;
  j["simd"] = lore::kernels::dispatch_name(lore::kernels::active_dispatch());
  return j;
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
