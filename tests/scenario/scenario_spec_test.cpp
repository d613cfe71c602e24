// Codec contract for the declarative scenario DSL (DESIGN.md §14): the
// to_json/from_json round trip is lossless on obs::Json, unknown keys are
// forward-compatible noise, and malformed input fails with an origin-anchored
// file:line:column diagnostic instead of a bare parser message.
#include "src/scenario/spec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/obs/json.hpp"
#include "src/scenario/generate.hpp"

namespace {

using namespace lore::scenario;

ScenarioSpec full_spec() {
  ScenarioSpec spec;
  spec.name = "kitchen_sink";
  spec.description = "every section populated";
  spec.seed = 2024;
  spec.campaign.threads = 3;
  spec.campaign.base_seed = 555;
  spec.campaign.max_retries = 1;
  spec.workloads.push_back({"matmul", 4, 7});
  spec.workloads.push_back({"checksum", 16, 9});
  spec.faults.push_back({"arch.fault", "memory", 1, 64});
  spec.faults.push_back({"arch.pipeline", "register", 0, 32});
  spec.thermal.push_back({1000.0, 320.0});
  spec.thermal.push_back({500.0, 330.0});
  spec.device = DeviceSpec{};
  spec.device->years = 7.5;
  spec.os = OsSpec{};
  spec.os->governor = "static";
  spec.os->vf_index = 1;
  spec.mixed_criticality = MixedCritSpec{};
  spec.mixed_criticality->force_criticality.push_back({0, "high"});
  spec.replica_drift = ReplicaDriftSpec{};
  spec.replica_drift->phases.push_back({"calm", 0.002, 4});
  spec.rollback = RollbackSpec{};
  spec.rollback->schedulers = {"ds", "wcet"};
  spec.rollback->base_seed = 11;
  spec.rollback->error_probabilities = {1e-6, 1e-5};
  spec.crosslayer = CrossLayerSpec{};
  spec.crosslayer->episodes = 4;
  return spec;
}

TEST(ScenarioSpec, RoundTripIsLossless) {
  const ScenarioSpec spec = full_spec();
  const lore::obs::Json first = to_json(spec);
  const ScenarioSpec reparsed = scenario_from_json(first);
  const lore::obs::Json second = to_json(reparsed);
  // obs::Json preserves insertion order, so equal dumps mean equal documents.
  EXPECT_EQ(first.dump(2), second.dump(2));
}

TEST(ScenarioSpec, RoundTripSurvivesTextSerialization) {
  const ScenarioSpec spec = full_spec();
  const std::string text = to_json(spec).dump(2);
  const ScenarioSpec reparsed = parse_scenario(text, "roundtrip.json");
  EXPECT_EQ(text, to_json(reparsed).dump(2));
}

// Every seed field of a spec, in a fixed order (0 stands in for an unset
// optional base seed).
std::vector<std::uint64_t> all_seeds(const ScenarioSpec& spec) {
  std::vector<std::uint64_t> seeds{spec.seed, spec.campaign.base_seed.value_or(0)};
  for (const auto& w : spec.workloads) seeds.push_back(w.wseed);
  if (spec.os) seeds.insert(seeds.end(), {spec.os->sim_seed, spec.os->tasks.seed});
  if (spec.mixed_criticality)
    seeds.insert(seeds.end(),
                 {spec.mixed_criticality->sim_seed, spec.mixed_criticality->tasks.seed});
  if (spec.replica_drift) seeds.push_back(spec.replica_drift->seed);
  if (spec.rollback) seeds.push_back(spec.rollback->base_seed.value_or(0));
  if (spec.crosslayer)
    seeds.insert(seeds.end(), {spec.crosslayer->env_seed, spec.crosslayer->learner_seed});
  return seeds;
}

TEST(ScenarioSpec, GeneratedSpecsRoundTripWithFullWidthSeeds) {
  // Seeds are u64 written as their int64 bit pattern; seeds >= 2^63 (about
  // half of every generated seed field) must decode back, not be rejected.
  const ScenarioGenerator gen;
  std::size_t high_seeds = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    const ScenarioSpec spec = gen.at(i);
    const std::string text = to_json(spec).dump();
    const ScenarioSpec reparsed = parse_scenario(text, spec.name);
    EXPECT_EQ(text, to_json(reparsed).dump()) << spec.name;
    EXPECT_EQ(all_seeds(spec), all_seeds(reparsed)) << spec.name;
    for (const std::uint64_t seed : all_seeds(spec)) high_seeds += seed >> 63;
  }
  EXPECT_GT(high_seeds, 0u) << "the sweep never exercised a seed >= 2^63";
}

TEST(ScenarioSpec, MaxSeedsRoundTrip) {
  ScenarioSpec spec = full_spec();
  constexpr std::uint64_t kMax = 0xFFFFFFFFFFFFFFFFull;
  spec.seed = kMax;
  spec.campaign.base_seed = kMax;
  spec.workloads[0].wseed = kMax;
  spec.os->sim_seed = spec.os->tasks.seed = kMax - 1;
  spec.mixed_criticality->sim_seed = spec.mixed_criticality->tasks.seed = 1ull << 63;
  spec.replica_drift->seed = kMax;
  spec.rollback->base_seed = kMax;
  spec.crosslayer->env_seed = spec.crosslayer->learner_seed = kMax;
  const std::string text = to_json(spec).dump(2);
  const ScenarioSpec reparsed = parse_scenario(text, "max_seeds.json");
  EXPECT_EQ(text, to_json(reparsed).dump(2));
  EXPECT_EQ(all_seeds(spec), all_seeds(reparsed));
  EXPECT_EQ(reparsed.seed, kMax);
}

TEST(ScenarioSpec, NegativeCountsAreStillRejected) {
  const std::string text = R"({"schema": "lore.scenario.v1", "campaign": {"threads": -1}})";
  EXPECT_THROW(parse_scenario(text, "neg.json"), SpecError);
}

TEST(ScenarioSpec, UnknownKeysAreTolerated) {
  const char* text = R"({
    "schema": "lore.scenario.v1",
    "name": "forward_compat",
    "future_section": {"nested": [1, 2, 3]},
    "seed": 5,
    "campaign": {"threads": 2, "future_knob": true},
    "workloads": [{"name": "matmul", "scale": 4, "annotation": "ignored"}],
    "faults": [{"layer": "arch.fault", "target": "register", "workload": 0,
                "trials": 10, "color": "red"}]
  })";
  const ScenarioSpec spec = parse_scenario(text, "compat.json");
  EXPECT_EQ(spec.name, "forward_compat");
  EXPECT_EQ(spec.seed, 5u);
  EXPECT_EQ(spec.campaign.threads, 2u);
  ASSERT_EQ(spec.workloads.size(), 1u);
  EXPECT_EQ(spec.workloads[0].name, "matmul");
  ASSERT_EQ(spec.faults.size(), 1u);
  EXPECT_EQ(spec.faults[0].trials, 10u);
}

TEST(ScenarioSpec, MalformedJsonReportsFileLineColumn) {
  // The defect (a dangling comma before '}') sits on line 3.
  const char* text = "{\n  \"name\": \"broken\",\n  \"seed\": ,\n}\n";
  try {
    parse_scenario(text, "broken.scenario.json");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("broken.scenario.json:3:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("json parse error"), std::string::npos) << msg;
  }
}

TEST(ScenarioSpec, SemanticErrorsCarryJsonPath) {
  const char* bad_layer = R"({
    "workloads": [{"name": "matmul"}],
    "faults": [{"layer": "quantum.fault"}]
  })";
  try {
    parse_scenario(bad_layer, "bad.json");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bad.json"), std::string::npos) << msg;
    EXPECT_NE(msg.find("scenario.faults[0].layer"), std::string::npos) << msg;
  }
}

TEST(ScenarioSpec, FaultWorkloadIndexIsRangeChecked) {
  const char* dangling = R"({
    "workloads": [{"name": "matmul"}],
    "faults": [{"layer": "arch.fault", "workload": 3}]
  })";
  try {
    parse_scenario(dangling, "dangling.json");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
}

TEST(ScenarioSpec, UnsupportedSchemaIsRejected) {
  EXPECT_THROW(parse_scenario(R"({"schema": "lore.scenario.v9"})", "future.json"),
               SpecError);
}

TEST(ScenarioSpec, EmptyObjectYieldsDefaults) {
  const ScenarioSpec spec = parse_scenario("{}", "defaults.json");
  EXPECT_EQ(spec.seed, 1u);
  EXPECT_EQ(spec.campaign.threads, 0u);
  EXPECT_FALSE(spec.campaign.base_seed.has_value());
  EXPECT_TRUE(spec.workloads.empty());
  EXPECT_FALSE(spec.device.has_value());
  EXPECT_FALSE(spec.rollback.has_value());
}

}  // namespace
