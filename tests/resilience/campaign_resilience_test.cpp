// Resilience contract of the campaign runtime (src/common/campaign.hpp):
// checkpoints survive corruption/truncation/staleness by degrading to a fresh
// run; a SIGKILL-ed campaign resumes bit-identically at any thread count;
// hung trials time out, retry with backoff, and degrade into the report; the
// pool reports suppressed job exceptions instead of dropping them.
#include "src/common/campaign.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/obs/obs.hpp"

namespace lore {
namespace {

using namespace std::chrono_literals;

/// Trivially copyable record whose bytes are a pure function of the trial
/// index and its seeded stream — any scheduling or resume difference shows up
/// as a byte difference.
struct ProbeRecord {
  std::uint64_t trial = 0;
  std::uint64_t draw = 0;
  friend bool operator==(const ProbeRecord&, const ProbeRecord&) = default;
};

ProbeRecord probe_trial(std::size_t t, Rng& rng) {
  return ProbeRecord{t, rng.next_u64()};
}

std::string temp_ckpt(const char* name) {
  return ::testing::TempDir() + "resilience_" + name + ".ckpt";
}

CampaignSpec base_spec(std::size_t trials, const char* name) {
  CampaignSpec spec;
  spec.trials = trials;
  spec.base_seed = 2024;
  spec.domain = std::string("test.probe/") + name;
  spec.checkpoint_path = temp_ckpt(name);
  spec.checkpoint_every = 1;
  std::filesystem::remove(spec.checkpoint_path);
  return spec;
}

CampaignResult<ProbeRecord> run_probe(const CampaignSpec& spec) {
  return run_campaign<ProbeRecord>(
      spec, [](std::size_t t, Rng& rng, const CancelToken&) { return probe_trial(t, rng); });
}

TEST(Checkpoint, RoundTripPreservesEntries) {
  CampaignSpec spec = base_spec(10, "roundtrip");
  CampaignCheckpoint ck;
  ck.identity = spec.identity_hash();
  ck.build_tag = checkpoint_build_tag();
  ck.trials = spec.trials;
  ck.entries = {{2, "payload-two"}, {7, std::string("\x00\xff zero", 7)}};
  ASSERT_TRUE(write_checkpoint(spec.checkpoint_path, ck));

  const auto loaded = load_checkpoint(spec.checkpoint_path, spec);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->entries.size(), 2u);
  EXPECT_EQ(loaded->entries[0].trial, 2u);
  EXPECT_EQ(loaded->entries[0].payload, "payload-two");
  EXPECT_EQ(loaded->entries[1].trial, 7u);
  EXPECT_EQ(loaded->entries[1].payload, ck.entries[1].payload);
}

TEST(Checkpoint, MissingFileIsNotAnError) {
  CampaignSpec spec = base_spec(4, "missing");
  EXPECT_FALSE(load_checkpoint(spec.checkpoint_path, spec).has_value());
}

TEST(Checkpoint, CorruptedByteFallsBackToFreshRun) {
  CampaignSpec spec = base_spec(12, "corrupt");
  ASSERT_TRUE(run_probe(spec).report.complete());

  // Flip one payload byte in the middle of the file: the CRC must reject it.
  std::fstream f(spec.checkpoint_path,
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::streamoff>(f.tellg());
  ASSERT_GT(size, 32);
  f.seekp(size / 2);
  char byte = 0;
  f.seekg(size / 2);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(size / 2);
  f.write(&byte, 1);
  f.close();

  EXPECT_FALSE(load_checkpoint(spec.checkpoint_path, spec).has_value());
  const auto fresh = run_probe(spec);  // must not crash or resume poison
  EXPECT_FALSE(fresh.report.loaded_checkpoint);
  EXPECT_EQ(fresh.report.resumed, 0u);
  EXPECT_TRUE(fresh.report.complete());
}

TEST(Checkpoint, TruncatedFileFallsBackToFreshRun) {
  CampaignSpec spec = base_spec(12, "truncated");
  ASSERT_TRUE(run_probe(spec).report.complete());
  const auto size = std::filesystem::file_size(spec.checkpoint_path);
  std::filesystem::resize_file(spec.checkpoint_path, size / 2);

  EXPECT_FALSE(load_checkpoint(spec.checkpoint_path, spec).has_value());
  const auto fresh = run_probe(spec);
  EXPECT_FALSE(fresh.report.loaded_checkpoint);
  EXPECT_TRUE(fresh.report.complete());
}

TEST(Checkpoint, StaleBuildTagIsRejected) {
  CampaignSpec spec = base_spec(6, "stale");
  CampaignCheckpoint ck;
  ck.identity = spec.identity_hash();
  ck.build_tag = "stale-build";
  ck.trials = spec.trials;
  ck.entries = {{0, "old payload"}};
  ASSERT_TRUE(write_checkpoint(spec.checkpoint_path, ck));
  EXPECT_FALSE(load_checkpoint(spec.checkpoint_path, spec).has_value());
}

TEST(Checkpoint, SpecIdentityMismatchIsRejected) {
  CampaignSpec spec = base_spec(6, "mismatch");
  ASSERT_TRUE(run_probe(spec).report.complete());

  CampaignSpec other = spec;
  other.base_seed += 1;  // identity field: different campaign
  EXPECT_FALSE(load_checkpoint(spec.checkpoint_path, other).has_value());

  CampaignSpec policy_change = spec;
  policy_change.threads = 7;  // policy field: same campaign
  policy_change.checkpoint_every = 3;
  EXPECT_TRUE(load_checkpoint(spec.checkpoint_path, policy_change).has_value());
}

TEST(Checkpoint, DefaultPathComesFromEnvironment) {
  unsetenv("LORE_CHECKPOINT_DIR");
  EXPECT_EQ(default_checkpoint_path("fi"), "");
  setenv("LORE_CHECKPOINT_DIR", "/tmp/lore-ckpt", 1);
  EXPECT_EQ(default_checkpoint_path("fi"), "/tmp/lore-ckpt/fi.ckpt");
  unsetenv("LORE_CHECKPOINT_DIR");
}

TEST(Resume, ChunkedRunsAreBitIdenticalAtAnyThreadCount) {
  CampaignSpec reference_spec = base_spec(20, "chunk_ref");
  reference_spec.checkpoint_path.clear();
  const auto reference = run_probe(reference_spec);
  ASSERT_TRUE(reference.report.complete());

  const unsigned hw = std::thread::hardware_concurrency();
  for (unsigned threads : {1u, 4u, hw ? hw : 2u}) {
    CampaignSpec spec = base_spec(20, "chunk");
    spec.threads = threads;
    spec.max_trials_per_run = 7;
    CampaignResult<ProbeRecord> result;
    std::size_t invocations = 0;
    do {
      result = run_probe(spec);
      ASSERT_LT(++invocations, 10u) << "campaign failed to converge";
    } while (!result.report.complete());
    EXPECT_EQ(invocations, 3u);  // ceil(20 / 7)
    EXPECT_TRUE(result.report.loaded_checkpoint);
    EXPECT_GT(result.report.resumed, 0u);
    EXPECT_EQ(result.records, reference.records) << "threads=" << threads;
  }
}

TEST(Resume, ScatteredGapsRunOnlyTheMissingIndices) {
  // A first run fails every third trial, leaving a checkpoint full of gaps;
  // the resume must execute exactly those indices, whatever the chunking.
  CampaignSpec reference_spec = base_spec(60, "gaps_ref");
  reference_spec.checkpoint_path.clear();
  const auto reference = run_probe(reference_spec);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{4}, std::size_t{0}}) {
    CampaignSpec spec = base_spec(60, "gaps");
    spec.threads = 4;
    spec.max_retries = 0;
    const auto holey = run_campaign<ProbeRecord>(
        spec, [](std::size_t t, Rng& rng, const CancelToken&) {
          if (t % 3 == 0) throw std::runtime_error("gap");
          return probe_trial(t, rng);
        });
    ASSERT_EQ(holey.report.failed, 20u);

    std::vector<std::atomic<int>> runs(60);
    const auto resumed = run_campaign<ProbeRecord>(
        spec,
        [&](std::size_t t, Rng& rng, const CancelToken&) {
          runs[t].fetch_add(1);
          return probe_trial(t, rng);
        },
        {}, chunk);
    EXPECT_TRUE(resumed.report.complete());
    EXPECT_EQ(resumed.report.resumed, 40u);
    for (std::size_t t = 0; t < 60; ++t)
      EXPECT_EQ(runs[t].load(), t % 3 == 0 ? 1 : 0) << "t=" << t << " chunk=" << chunk;
    EXPECT_EQ(resumed.records, reference.records) << "chunk=" << chunk;
  }
}

TEST(Resume, SigkilledCampaignResumesBitIdentical) {
  CampaignSpec spec = base_spec(64, "sigkill");

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: grind through the campaign slowly so the parent can kill it
    // mid-flight with checkpoints on disk.
    CampaignSpec slow = spec;
    slow.threads = 2;
    run_campaign<ProbeRecord>(slow,
                              [](std::size_t t, Rng& rng, const CancelToken&) {
                                std::this_thread::sleep_for(3ms);
                                return probe_trial(t, rng);
                              });
    _exit(0);
  }

  // Parent: wait for evidence of progress, then SIGKILL — no graceful exit.
  for (int i = 0; i < 1000; ++i) {
    std::error_code ec;
    if (std::filesystem::exists(spec.checkpoint_path, ec)) break;
    std::this_thread::sleep_for(2ms);
  }
  std::this_thread::sleep_for(20ms);
  kill(child, SIGKILL);
  int status = 0;
  waitpid(child, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // The file on disk is a valid checkpoint (atomic rename: never half-written).
  const auto loaded = load_checkpoint(spec.checkpoint_path, spec);
  if (loaded.has_value()) {
    EXPECT_LE(loaded->entries.size(), spec.trials);
  }

  CampaignSpec resume = spec;
  resume.threads = 4;
  const auto resumed = run_probe(resume);
  EXPECT_TRUE(resumed.report.complete());
  if (loaded.has_value() && !loaded->entries.empty()) {
    EXPECT_TRUE(resumed.report.loaded_checkpoint);
  }

  CampaignSpec uninterrupted = spec;
  uninterrupted.checkpoint_path = temp_ckpt("sigkill_ref");
  std::filesystem::remove(uninterrupted.checkpoint_path);
  const auto reference = run_probe(uninterrupted);
  EXPECT_EQ(resumed.records, reference.records);
}

TEST(Deadline, HungTrialTimesOutRetriesAndDegrades) {
  auto& registry = obs::MetricsRegistry::global();
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto timeouts_before = registry.counter("campaign.timeouts").value();
  const auto retries_before = registry.counter("campaign.retries").value();

  CampaignSpec spec;
  spec.trials = 8;
  spec.base_seed = 7;
  spec.domain = "test.hang";
  spec.threads = 2;
  spec.trial_deadline = 20ms;
  spec.max_retries = 2;
  spec.retry_backoff = 1ms;
  const std::size_t hung = 3;
  const auto result = run_campaign<ProbeRecord>(
      spec, [&](std::size_t t, Rng& rng, const CancelToken& cancel) {
        if (t == hung) {
          for (;;) {  // a hang: only the deadline can stop it
            std::this_thread::sleep_for(1ms);
            cancel.throw_if_cancelled();
          }
        }
        return probe_trial(t, rng);
      });

  EXPECT_EQ(result.status[hung], TrialStatus::kTimeout);
  EXPECT_EQ(result.report.timeouts, 1u);
  EXPECT_EQ(result.report.timeout_attempts, 3u);  // initial + 2 retries
  EXPECT_EQ(result.report.retries, 2u);
  EXPECT_EQ(result.report.completed, spec.trials - 1);
  EXPECT_FALSE(result.report.complete());
  for (std::size_t t = 0; t < spec.trials; ++t) {
    if (t != hung) {
      EXPECT_EQ(result.status[t], TrialStatus::kOk);
    }
  }

  // The obs counter tallies timed-out attempts (3 here: initial + 2 retries).
  EXPECT_EQ(registry.counter("campaign.timeouts").value(), timeouts_before + 3);
  EXPECT_GE(registry.counter("campaign.retries").value(), retries_before + 2);
  obs::set_enabled(was_enabled);
}

TEST(Deadline, RetrySucceedsWithIdenticalStream) {
  // A trial that times out once, then completes, must produce the same bytes
  // as a trial that never timed out: each attempt replays the same stream.
  CampaignSpec flaky_spec;
  flaky_spec.trials = 6;
  flaky_spec.base_seed = 99;
  flaky_spec.domain = "test.flaky";
  flaky_spec.threads = 1;
  flaky_spec.trial_deadline = 50ms;
  flaky_spec.max_retries = 2;
  flaky_spec.retry_backoff = 1ms;
  std::atomic<int> attempts{0};
  const auto flaky = run_campaign<ProbeRecord>(
      flaky_spec, [&](std::size_t t, Rng& rng, const CancelToken&) {
        if (t == 2 && attempts.fetch_add(1) == 0) throw TrialTimeout();
        return probe_trial(t, rng);
      });
  ASSERT_TRUE(flaky.report.complete());
  EXPECT_EQ(flaky.report.retries, 1u);

  CampaignSpec clean_spec = flaky_spec;
  const auto clean = run_campaign<ProbeRecord>(
      clean_spec,
      [](std::size_t t, Rng& rng, const CancelToken&) { return probe_trial(t, rng); });
  EXPECT_EQ(flaky.records, clean.records);
}

TEST(Deadline, FailingTrialIsRecordedWithFirstError) {
  CampaignSpec spec;
  spec.trials = 5;
  spec.base_seed = 3;
  spec.domain = "test.fail";
  spec.threads = 2;
  spec.max_retries = 1;
  spec.retry_backoff = 1ms;
  const auto result = run_campaign<ProbeRecord>(
      spec, [](std::size_t t, Rng& rng, const CancelToken&) {
        if (t == 1) throw std::runtime_error("boom in trial 1");
        return probe_trial(t, rng);
      });
  EXPECT_EQ(result.status[1], TrialStatus::kFailed);
  EXPECT_EQ(result.report.failed, 1u);
  EXPECT_EQ(result.report.suppressed_exceptions, 2u);  // initial + 1 retry
  EXPECT_NE(result.report.first_error.find("boom in trial 1"), std::string::npos);
  EXPECT_EQ(result.records[1], ProbeRecord{});  // failed slot value-initialized
}

TEST(Budget, ExhaustedBudgetSkipsAndResumeFinishes) {
  CampaignSpec spec = base_spec(24, "budget");
  spec.threads = 2;
  spec.overall_budget = 1ms;
  const auto slow_probe = [](std::size_t t, Rng& rng, const CancelToken&) {
    std::this_thread::sleep_for(3ms);
    return probe_trial(t, rng);
  };
  const auto partial = run_campaign<ProbeRecord>(spec, slow_probe);
  EXPECT_GT(partial.report.skipped, 0u);
  EXPECT_FALSE(partial.report.complete());

  CampaignSpec resume = spec;
  resume.overall_budget = {};
  const auto finished = run_campaign<ProbeRecord>(resume, slow_probe);
  ASSERT_TRUE(finished.report.complete());

  CampaignSpec reference = spec;
  reference.overall_budget = {};
  reference.checkpoint_path.clear();
  const auto uninterrupted = run_campaign<ProbeRecord>(reference, slow_probe);
  EXPECT_EQ(finished.records, uninterrupted.records);
}

TEST(Pool, SuppressedExceptionsAreCountedAndReported) {
  auto& counter = obs::MetricsRegistry::global().counter("pool.suppressed_exceptions");
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto before = counter.value();

  ThreadPool pool(4);
  for (int i = 0; i < 8; ++i)
    pool.submit([] { throw std::runtime_error("job exploded"); });
  try {
    pool.wait();
    FAIL() << "wait() must rethrow";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("job exploded"), std::string::npos);
    EXPECT_NE(what.find("+7 suppressed job exception(s)"), std::string::npos) << what;
  }
  EXPECT_EQ(counter.value(), before + 7);
  obs::set_enabled(was_enabled);
}

TEST(Pool, SingleExceptionKeepsOriginalTypeAndMessage) {
  ThreadPool pool(2);
  pool.submit([] { throw std::logic_error("lonely failure"); });
  EXPECT_THROW(pool.wait(), std::logic_error);
}

}  // namespace
}  // namespace lore
