// Section V end to end: round-trip audio through the ADPCM codec, segment the
// encoding workload with the seeded cycle-cost model, and study how the
// checkpointing/rollback-recovery system and the cycle-noise mitigation
// schedulers behave around the error-rate wall.
//
//   $ ./adpcm_timing [error_probability]
#include <cstdio>
#include <cstdlib>

#include "src/common/stats.hpp"
#include "src/rollback/montecarlo.hpp"

int main(int argc, char** argv) {
  using namespace lore;
  using namespace lore::rollback;

  const double p = argc > 1 ? std::atof(argv[1]) : 3e-6;
  std::printf("per-cycle error probability: %g\n\n", p);

  // The workload's program: the ADPCM codec, run here on its own.
  const auto pcm = synth_audio(4096, 1);
  const auto codes = adpcm_encode(pcm);
  const auto decoded = adpcm_decode(codes);
  std::printf("ADPCM round trip: %zu samples -> %zu 4-bit codes (first decoded %d)\n",
              pcm.size(), codes.size(), decoded.front());

  // Its segmentation into 40k-270k-cycle units: seeded block sizes priced by
  // the encoder's operation-count cycle model (no audio is encoded).
  const auto segments = segment_adpcm_workload(SegmentationConfig{});
  std::uint64_t total = 0;
  for (const auto& s : segments) total += s.nominal_cycles;
  std::printf("%zu segments, %.1fk cycles total\n\n", segments.size(),
              static_cast<double>(total) / 1000.0);

  // Closed-form Eq. (2) expectations per segment.
  std::printf("%-12s %-14s %-14s\n", "segment", "cycles", "E[rollbacks]");
  for (std::size_t i = 0; i < 5; ++i)
    std::printf("%-12zu %-14llu %-14.4f\n", i,
                static_cast<unsigned long long>(segments[i].nominal_cycles),
                expected_rollbacks(p, segments[i].nominal_cycles + 100));
  std::printf("...\n\n");

  // One Monte Carlo run per scheduler at this error rate.
  const MitigationConfig mitigation{};
  std::printf("%-10s %-10s %-16s\n", "scheduler", "hit_rate", "rollbacks/segment");
  for (auto kind : {SchedulerKind::kDs, SchedulerKind::kDs15, SchedulerKind::kDs2,
                    SchedulerKind::kWcet}) {
    lore::Rng rng(7);  // same error realization for a paired comparison
    const auto budgets = static_budgets(kind, segments, mitigation.checkpoint);
    lore::RunningStats hits;
    double rollbacks = 0.0;
    for (int run = 0; run < 100; ++run) {
      const auto outcome = simulate_run(segments, budgets, p, mitigation, rng);
      hits.add(outcome.deadline_hit_rate);
      rollbacks += outcome.mean_rollbacks_per_segment;
    }
    std::printf("%-10s %-10.4f %-16.4f\n", scheduler_name(kind).c_str(), hits.mean(),
                rollbacks / 100.0);
  }
  std::printf(
      "\nTry p=1e-7 (everyone hits), p=1e-5 (conservative schedulers only), and\n"
      "p=1e-4 (past the wall: nobody hits, regardless of algorithm).\n");
  return 0;
}
