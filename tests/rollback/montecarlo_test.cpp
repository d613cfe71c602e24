// The Monte Carlo sweep engine of Sec. V: trial statistics must converge to
// the closed-form error model (Eq. 2), and the derived figures (hit rates,
// wall positions) must behave like the paper's.
#include "src/rollback/montecarlo.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/rollback/error_model.hpp"

namespace lore::rollback {
namespace {

TEST(ProbabilityGrid, SpansPaperRangeAndIncreases) {
  const auto grid = ExperimentConfig::default_probability_grid();
  ASSERT_FALSE(grid.empty());
  EXPECT_NEAR(grid.front(), 1e-8, 1e-12);
  EXPECT_LE(grid.back(), 1e-3 + 1e-9);
  EXPECT_TRUE(std::is_sorted(grid.begin(), grid.end()));
}

TEST(MonteCarlo, RollbacksConvergeToClosedFormExpectation) {
  ExperimentConfig cfg;
  cfg.error_probabilities = {1e-6, 1e-5};
  cfg.runs_per_point = 300;
  const auto result = run_experiment(cfg, {SchedulerKind::kDs});

  ASSERT_EQ(result.points.size(), 2u);
  for (const auto& point : result.points) {
    // Eq. (2) expectation, averaged over segments; an attempt's error window
    // includes the checkpoint routine itself.
    double analytic = 0.0;
    for (const auto& seg : result.segments)
      analytic += expected_rollbacks(
          point.p, seg.nominal_cycles + cfg.mitigation.checkpoint.checkpoint_cycles);
    analytic /= static_cast<double>(result.segments.size());

    // Within 4 standard errors of the Monte Carlo mean (plus an absolute
    // floor for the near-zero low-p points).
    const double tolerance = 4.0 * point.sem_rollbacks + 1e-3;
    EXPECT_NEAR(point.avg_rollbacks_per_segment, analytic, tolerance)
        << "p=" << point.p;
  }
}

TEST(MonteCarlo, SemShrinksWithMoreRuns) {
  ExperimentConfig small, large;
  small.error_probabilities = large.error_probabilities = {1e-5};
  small.runs_per_point = 30;
  large.runs_per_point = 480;
  const double sem_small =
      run_experiment(small, {SchedulerKind::kDs}).points[0].sem_rollbacks;
  const double sem_large =
      run_experiment(large, {SchedulerKind::kDs}).points[0].sem_rollbacks;
  EXPECT_LT(sem_large, sem_small);
}

TEST(MonteCarlo, HitRateDegradesTowardTheWall) {
  ExperimentConfig cfg;
  cfg.error_probabilities = {1e-8, 1e-4};
  cfg.runs_per_point = 60;
  const auto result = run_experiment(cfg, {SchedulerKind::kDs});
  const double clean = result.points.front().hit_rate.at(SchedulerKind::kDs);
  const double wall = result.points.back().hit_rate.at(SchedulerKind::kDs);
  EXPECT_GT(clean, 0.95);  // essentially error-free at 1e-8
  EXPECT_LT(wall, clean);  // past the paper's error-rate wall
}

TEST(MonteCarlo, ConservativeBudgetsPushTheWallOut) {
  ExperimentConfig cfg;
  cfg.runs_per_point = 40;
  const auto result =
      run_experiment(cfg, {SchedulerKind::kDs, SchedulerKind::kWcet});
  // WCET grants every segment the worst-case window, so its deadline hit
  // rate survives to at least as high an error probability as DS.
  EXPECT_GE(result.wall_position(SchedulerKind::kWcet),
            result.wall_position(SchedulerKind::kDs));
}

TEST(MonteCarlo, WallPositionFallsInsideSweptGrid) {
  ExperimentConfig cfg;
  cfg.runs_per_point = 40;
  const auto result = run_experiment(cfg, {SchedulerKind::kDs});
  const double wall = result.wall_position(SchedulerKind::kDs);
  EXPECT_GE(wall, cfg.error_probabilities.front());
  EXPECT_LE(wall, cfg.error_probabilities.back());
}

TEST(MonteCarlo, MatchesPinnedResult) {
  // Pins a small experiment bit for bit: the segment stream, the per-(point,
  // run) error realizations and DS-ML's calibration all feed these doubles.
  ExperimentConfig cfg;
  cfg.error_probabilities = {1e-6, 3e-6, 1e-5};
  cfg.runs_per_point = 8;
  const auto result =
      run_experiment(cfg, {SchedulerKind::kDs, SchedulerKind::kDsLearned});
  struct Pinned {
    double avg, sem, hit_ds, hit_learned;
  };
  const Pinned want[] = {
      {0x1.6p-3, 0x1.2aaaaaaaaaaaap-5, 0x1p+0, 0x1p+0},
      {0x1.3555555555555p-1, 0x1.97f8ab65c79bp-4, 0x1.bd55555555556p-1, 0x1p+0},
      {0x1.fcaaaaaaaaaabp+1, 0x1.9de642ecbe413p-2, 0x1.2aaaaaaaaaaaap-5, 0x1.3555555555555p-3},
  };
  ASSERT_EQ(result.points.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& point = result.points[i];
    EXPECT_EQ(point.avg_rollbacks_per_segment, want[i].avg) << "point " << i;
    EXPECT_EQ(point.sem_rollbacks, want[i].sem) << "point " << i;
    EXPECT_EQ(point.hit_rate.at(SchedulerKind::kDs), want[i].hit_ds) << "point " << i;
    EXPECT_EQ(point.hit_rate.at(SchedulerKind::kDsLearned), want[i].hit_learned)
        << "point " << i;
  }
}

}  // namespace
}  // namespace lore::rollback
