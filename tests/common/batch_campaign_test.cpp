// Contract tests for the chunked campaign executor `run_campaign` (DESIGN.md
// §11): record/status/report equivalence with the per-trial oracle across
// chunk sizes and thread counts, per-trial RNG stream identity, retry and
// failure degradation, and resilience specs running on the same loop.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/common/campaign.hpp"
#include "tests/common/trial_oracle.hpp"

namespace {

using namespace lore;

struct Sample {
  std::uint64_t value = 0;
  std::uint64_t index = 0;
  friend bool operator==(const Sample&, const Sample&) = default;
};

CampaignSpec plain_spec(std::size_t trials, unsigned threads) {
  CampaignSpec spec;
  spec.trials = trials;
  spec.base_seed = 4242;
  spec.threads = threads;
  spec.domain = "test.batch";
  return spec;
}

TEST(BatchCampaign, MatchesReferenceAcrossChunkSizesAndThreads) {
  const auto trial = [](std::size_t t, Rng& rng, const CancelToken&) {
    return Sample{rng.next_u64(), t};
  };
  const auto reference = oracle::per_trial<Sample>(plain_spec(1000, 1), trial);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{64},
                                  std::size_t{1000}, std::size_t{4096}}) {
    for (const unsigned threads : {1u, 4u, 0u}) {
      const auto batched =
          run_campaign<Sample>(plain_spec(1000, threads), trial, {}, chunk);
      EXPECT_EQ(reference, batched.records) << "chunk=" << chunk << " threads=" << threads;
      EXPECT_EQ(batched.status, std::vector<TrialStatus>(1000, TrialStatus::kOk));
      EXPECT_EQ(batched.report.completed, 1000u);
      EXPECT_TRUE(batched.report.complete());
    }
  }
}

TEST(BatchCampaign, TrialRngStreamIsTheEngineContract) {
  // Trial i must see a fresh Rng seeded with trial_seed(base_seed, i) —
  // exactly the documented determinism contract.
  const auto result = run_campaign<std::uint64_t>(
      plain_spec(257, 0),
      [](std::size_t, Rng& rng, const CancelToken&) { return rng.next_u64(); });
  ASSERT_EQ(result.report.completed, 257u);
  for (std::size_t t = 0; t < 257; ++t) {
    Rng expected(trial_seed(4242, t));
    EXPECT_EQ(result.records[t], expected.next_u64()) << "t=" << t;
  }
}

TEST(BatchCampaign, PersistentFailuresDegradeToFailedStatus) {
  CampaignSpec spec = plain_spec(100, 4);
  spec.max_retries = 2;
  spec.retry_backoff = std::chrono::milliseconds(0);
  const auto result = run_campaign<Sample>(
      spec, [](std::size_t t, Rng&, const CancelToken&) {
        if (t % 10 == 3) throw std::runtime_error("trial exploded");
        return Sample{t * 2, t};
      });
  EXPECT_EQ(result.report.completed, 90u);
  EXPECT_EQ(result.report.failed, 10u);
  EXPECT_FALSE(result.report.complete());
  // Each failing trial burns the initial attempt plus max_retries retries.
  EXPECT_EQ(result.report.retries, 10u * 2u);
  EXPECT_EQ(result.report.suppressed_exceptions, 10u * 3u);
  EXPECT_EQ(result.report.first_error, "trial exploded");
  for (std::size_t t = 0; t < 100; ++t) {
    if (t % 10 == 3) {
      EXPECT_EQ(result.status[t], TrialStatus::kFailed);
      EXPECT_EQ(result.records[t], Sample{}) << "failed slot must be value-initialized";
    } else {
      EXPECT_EQ(result.status[t], TrialStatus::kOk);
      EXPECT_EQ(result.records[t].value, t * 2);
    }
  }
}

TEST(BatchCampaign, TransientFailuresRecoverViaRetry) {
  CampaignSpec spec = plain_spec(64, 4);
  spec.max_retries = 1;
  spec.retry_backoff = std::chrono::milliseconds(0);
  std::vector<std::atomic<int>> attempts(64);
  const auto result = run_campaign<Sample>(
      spec, [&](std::size_t t, Rng& rng, const CancelToken&) {
        if (t % 8 == 1 && attempts[t].fetch_add(1) == 0)
          throw std::runtime_error("transient");
        return Sample{rng.next_u64(), t};
      });
  EXPECT_EQ(result.report.completed, 64u);
  EXPECT_TRUE(result.report.complete());
  EXPECT_EQ(result.report.retries, 8u);
  EXPECT_EQ(result.report.suppressed_exceptions, 8u);
  // The retried attempt re-seeds from scratch: same stream as never failing.
  for (std::size_t t = 0; t < 64; ++t) {
    Rng expected(trial_seed(4242, t));
    EXPECT_EQ(result.records[t].value, expected.next_u64());
    EXPECT_EQ(result.status[t], TrialStatus::kOk);
  }
}

TEST(BatchCampaign, ResilienceSpecsRunOnTheChunkedEngine) {
  // Deadlines, budgets, per-run caps, and checkpoints are stages of the one
  // executor: each spec still reproduces the per-trial oracle.
  const auto trial = [](std::size_t t, Rng& rng, const CancelToken&) {
    return Sample{rng.next_u64(), t};
  };
  const CampaignSpec plain = plain_spec(100, 4);
  const auto reference = oracle::per_trial<Sample>(plain, trial);
  auto with_deadline = plain;
  with_deadline.trial_deadline = std::chrono::milliseconds(1000);
  auto with_budget = plain;
  with_budget.overall_budget = std::chrono::milliseconds(60000);
  auto with_checkpoint = plain;
  with_checkpoint.checkpoint_path = ::testing::TempDir() + "batch_resilience.ckpt";
  with_checkpoint.checkpoint_every = 16;
  std::remove(with_checkpoint.checkpoint_path.c_str());
  for (const auto& spec : {with_deadline, with_budget, with_checkpoint}) {
    const auto result = run_campaign<Sample>(spec, trial);
    EXPECT_TRUE(result.report.complete());
    EXPECT_EQ(result.records, reference);
  }

  // A capped spec runs exactly the first `max_trials_per_run` indices.
  auto with_cap = plain;
  with_cap.max_trials_per_run = 30;
  const auto capped = run_campaign<Sample>(with_cap, trial);
  EXPECT_EQ(capped.report.completed, 30u);
  EXPECT_EQ(capped.report.skipped, 70u);
  for (std::size_t t = 0; t < 100; ++t) {
    EXPECT_EQ(capped.status[t], t < 30 ? TrialStatus::kOk : TrialStatus::kSkipped);
    EXPECT_EQ(capped.records[t], t < 30 ? reference[t] : Sample{}) << "t=" << t;
  }
  std::remove(with_checkpoint.checkpoint_path.c_str());
}

TEST(BatchCampaign, ZeroTrials) {
  const auto result = run_campaign<Sample>(
      plain_spec(0, 4),
      [](std::size_t t, Rng&, const CancelToken&) { return Sample{0, t}; });
  EXPECT_EQ(result.records.size(), 0u);
  EXPECT_TRUE(result.report.complete());
}

}  // namespace
