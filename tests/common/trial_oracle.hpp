// Test-only per-trial oracles for the campaign executor. Each runs a
// campaign the slowest obvious way — one trial at a time, in index order,
// from `trial_seed(base_seed, i)` — so every chunked, threaded, resumed or
// pruned run can be compared against it bit for bit.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/arch/fault.hpp"
#include "src/arch/pipeline.hpp"
#include "src/common/campaign.hpp"

namespace lore::oracle {

/// Records of `spec`'s trials, each computed in isolation from a fresh Rng
/// seeded `trial_seed(spec.base_seed, i)` with a never-cancelling token.
template <typename Record, typename TrialFn>
std::vector<Record> per_trial(const CampaignSpec& spec, TrialFn&& trial) {
  std::vector<Record> out;
  out.reserve(spec.trials);
  for (std::size_t i = 0; i < spec.trials; ++i) {
    Rng rng(trial_seed(spec.base_seed, i));
    out.push_back(trial(i, rng, CancelToken()));
  }
  return out;
}

/// Fault-campaign oracle: trial i replayed through the reference `inject()`
/// path by `replay_trial(trial_seed(base_seed, i), target)`.
inline std::vector<arch::FaultRecord> fault_campaign(const arch::FaultInjector& injector,
                                                     std::size_t trials,
                                                     arch::FaultTarget target,
                                                     std::uint64_t base_seed) {
  std::vector<arch::FaultRecord> out;
  out.reserve(trials);
  for (std::size_t i = 0; i < trials; ++i)
    out.push_back(injector.replay_trial(trial_seed(base_seed, i), target));
  return out;
}

/// Pipeline-campaign oracle: every record carries trial i's seed and its
/// latch site classifies, through the reference `pipeline_inject`, to the
/// recorded outcome.
inline ::testing::AssertionResult pipeline_campaign_replays(
    const arch::Workload& w, const std::vector<arch::FaultRecord>& records,
    std::uint64_t base_seed) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    const arch::FaultRecord& rec = records[i];
    if (rec.trial_seed != trial_seed(base_seed, i))
      return ::testing::AssertionFailure() << "trial " << i << ": wrong seed";
    arch::PipelineFaultSite site;
    site.field = static_cast<arch::LatchField>(rec.site.index);
    site.bit = rec.site.bit;
    site.cycle = rec.site.cycle;
    if (arch::pipeline_inject(w, site) != rec.outcome)
      return ::testing::AssertionFailure() << "trial " << i << ": outcome differs";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace lore::oracle
