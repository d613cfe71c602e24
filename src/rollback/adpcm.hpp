// IMA ADPCM encoder and the workload segmentation used by Section V of the
// paper. The authors benchmarked TACLeBench's ADPCM lower sub-band block on
// the Ariane RISC-V RTL and segmented it into 40k-270k-cycle atomic units;
// LORE draws segments from a seeded operation-count cycle model of the
// encoder's inner loop, reproducing the same segment-length distribution
// (DESIGN.md substitution #2). The integer IMA ADPCM codec below is the
// program that model describes; it is tested on its own and is not run by
// the segmentation.
#pragma once

#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"

namespace lore::rollback {

/// IMA ADPCM codec state.
struct AdpcmState {
  std::int32_t predictor = 0;
  int step_index = 0;
};

/// Encode one 16-bit PCM sample to a 4-bit code, updating state.
std::uint8_t adpcm_encode_sample(AdpcmState& state, std::int16_t sample);
/// Decode a 4-bit code back to PCM (for the round-trip test).
std::int16_t adpcm_decode_sample(AdpcmState& state, std::uint8_t code);

/// Encode a PCM buffer; returns the 4-bit codes (one per sample).
std::vector<std::uint8_t> adpcm_encode(std::vector<std::int16_t> const& pcm);
std::vector<std::int16_t> adpcm_decode(std::vector<std::uint8_t> const& codes);

/// Synthetic "audio": a sum of drifting sinusoids plus noise, deterministic
/// per seed.
std::vector<std::int16_t> synth_audio(std::size_t samples, std::uint64_t seed);

/// One atomic re-executable unit of the application (Sec. V-B).
struct Segment {
  std::uint64_t nominal_cycles = 0;
};

struct SegmentationConfig {
  /// The paper's range: segments of 40k-270k cycles.
  std::uint64_t min_cycles = 40000;
  std::uint64_t max_cycles = 270000;
  std::size_t num_segments = 24;
  std::uint64_t seed = 89;
};

/// Segment the ADPCM encoding workload: seeded block sizes, chosen so nominal
/// cycles land uniformly in [min, max], priced by the operation-count model
/// of the encoder inner loop (adpcm_cycle_cost). No audio is encoded.
std::vector<Segment> segment_adpcm_workload(const SegmentationConfig& cfg);

/// Cycle cost of encoding `samples` PCM samples (operation-count model of
/// the inner loop on a single-issue in-order core).
std::uint64_t adpcm_cycle_cost(std::size_t samples);

}  // namespace lore::rollback
