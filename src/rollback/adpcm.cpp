#include "src/rollback/adpcm.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace lore::rollback {
namespace {

constexpr int kStepTable[89] = {
    7,     8,     9,     10,    11,    12,    13,    14,    16,    17,    19,
    21,    23,    25,    28,    31,    34,    37,    41,    45,    50,    55,
    60,    66,    73,    80,    88,    97,    107,   118,   130,   143,   157,
    173,   190,   209,   230,   253,   279,   307,   337,   371,   408,   449,
    494,   544,   598,   658,   724,   796,   876,   963,   1060,  1166,  1282,
    1411,  1552,  1707,  1878,  2066,  2272,  2499,  2749,  3024,  3327,  3660,
    4026,  4428,  4871,  5358,  5894,  6484,  7132,  7845,  8630,  9493,  10442,
    11487, 12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794,
    32767};

constexpr int kIndexTable[16] = {-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8};

}  // namespace

std::uint8_t adpcm_encode_sample(AdpcmState& state, std::int16_t sample) {
  const int step = kStepTable[state.step_index];
  int diff = static_cast<int>(sample) - state.predictor;
  std::uint8_t code = 0;
  if (diff < 0) {
    code = 8;
    diff = -diff;
  }
  // Successive approximation of diff / step in 3 bits.
  int delta = step >> 3;
  if (diff >= step) {
    code |= 4;
    diff -= step;
    delta += step;
  }
  if (diff >= step >> 1) {
    code |= 2;
    diff -= step >> 1;
    delta += step >> 1;
  }
  if (diff >= step >> 2) {
    code |= 1;
    delta += step >> 2;
  }
  state.predictor += (code & 8) ? -delta : delta;
  state.predictor = std::clamp(state.predictor, -32768, 32767);
  state.step_index = std::clamp(state.step_index + kIndexTable[code], 0, 88);
  return code;
}

std::int16_t adpcm_decode_sample(AdpcmState& state, std::uint8_t code) {
  const int step = kStepTable[state.step_index];
  int delta = step >> 3;
  if (code & 4) delta += step;
  if (code & 2) delta += step >> 1;
  if (code & 1) delta += step >> 2;
  state.predictor += (code & 8) ? -delta : delta;
  state.predictor = std::clamp(state.predictor, -32768, 32767);
  state.step_index = std::clamp(state.step_index + kIndexTable[code & 0xF], 0, 88);
  return static_cast<std::int16_t>(state.predictor);
}

std::vector<std::uint8_t> adpcm_encode(std::vector<std::int16_t> const& pcm) {
  AdpcmState state;
  std::vector<std::uint8_t> out;
  out.reserve(pcm.size());
  for (auto s : pcm) out.push_back(adpcm_encode_sample(state, s));
  return out;
}

std::vector<std::int16_t> adpcm_decode(std::vector<std::uint8_t> const& codes) {
  AdpcmState state;
  std::vector<std::int16_t> out;
  out.reserve(codes.size());
  for (auto c : codes) out.push_back(adpcm_decode_sample(state, c));
  return out;
}

std::vector<std::int16_t> synth_audio(std::size_t samples, std::uint64_t seed) {
  lore::Rng rng(seed);
  const double f1 = rng.uniform(0.005, 0.03);
  const double f2 = rng.uniform(0.05, 0.15);
  std::vector<std::int16_t> pcm(samples);
  double drift = 0.0;
  for (std::size_t i = 0; i < samples; ++i) {
    drift += rng.normal(0.0, 0.002);
    const double t = static_cast<double>(i);
    const double v = 8000.0 * std::sin(2.0 * M_PI * f1 * t + drift) +
                     3000.0 * std::sin(2.0 * M_PI * f2 * t) + rng.normal(0.0, 400.0);
    pcm[i] = static_cast<std::int16_t>(std::clamp(v, -32000.0, 32000.0));
  }
  return pcm;
}

std::uint64_t adpcm_cycle_cost(std::size_t samples) {
  // Inner loop of the encoder on a single-issue in-order core: roughly
  // 35 ALU/branch ops + 6 loads/stores (2-cycle) per sample, plus loop
  // overhead.
  return static_cast<std::uint64_t>(samples) * (35 + 6 * 2) + 20;
}

std::vector<Segment> segment_adpcm_workload(const SegmentationConfig& cfg) {
  assert(cfg.max_cycles > cfg.min_cycles && cfg.num_segments > 0);
  lore::Rng rng(cfg.seed);
  std::vector<Segment> segments;
  segments.reserve(cfg.num_segments);

  const double cycles_per_sample =
      static_cast<double>(adpcm_cycle_cost(1000) - 20) / 1000.0;
  for (std::size_t s = 0; s < cfg.num_segments; ++s) {
    // Draw the block length so the segment lands uniformly in the paper's
    // cycle range. Block sizes come from the cycle-cost model alone, which is
    // data-independent, so no audio is encoded here; the codec is tested on
    // its own (tests/rollback/adpcm_test.cpp).
    const auto target = static_cast<std::uint64_t>(
        rng.uniform(static_cast<double>(cfg.min_cycles), static_cast<double>(cfg.max_cycles)));
    const auto block_samples =
        static_cast<std::size_t>(static_cast<double>(target) / cycles_per_sample);
    // Discard the draw that once seeded each block's synthetic audio: it keeps
    // the segment stream, and every result built on it, unchanged.
    rng.next_u64();
    segments.push_back(Segment{adpcm_cycle_cost(block_samples)});
  }
  return segments;
}

}  // namespace lore::rollback
