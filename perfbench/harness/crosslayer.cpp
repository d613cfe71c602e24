// The crosslayer workload, transistor to application: an aging-aware timing
// signoff (device + circuit + the ML library characterizer) and a sweep of
// generated full-stack scenarios (device, arch, os, rollback, core).
#include <optional>

#include "harness.hpp"
#include "src/circuit/aging_flow.hpp"
#include "src/circuit/sta.hpp"
#include "src/common/parallel.hpp"
#include "src/obs/span.hpp"
#include "src/scenario/engine.hpp"
#include "src/scenario/generate.hpp"
#include "src/scenario/invariants.hpp"
#include "src/scenario/spec.hpp"

namespace perfbench {
namespace {

using lore::obs::Span;
namespace circuit = lore::circuit;
namespace scenario = lore::scenario;

constexpr std::size_t kScenarios = 1000;
constexpr double kLifetimesYears[] = {1.0, 5.0, 10.0};

/// Stage sizes above the generator defaults (24-96 fault trials, 400 ms OS
/// phases, 1.5 s mixed-criticality runs, 4 rollback runs), so each stage
/// does enough work to be timed.
scenario::GeneratorConfig generator_config(std::uint64_t seed) {
  scenario::GeneratorConfig g;
  g.base_seed = seed;
  g.min_fault_trials = 100;
  g.max_fault_trials = 400;
  g.os_duration_ms = 1500.0;
  g.mc_duration_ms = 4000.0;
  g.rollback_runs = 8;
  return g;
}

class Crosslayer final : public Workload {
 public:
  explicit Crosslayer(const Options& opt)
      : netlist_seed_(lore::trial_seed(opt.seed, 0x6e65746c)) {
    const scenario::ScenarioGenerator gen(generator_config(opt.seed));
    specs_.reserve(kScenarios);
    for (std::size_t i = 0; i < kScenarios; ++i) {
      scenario::ScenarioSpec spec = gen.at(i);
      spec.campaign.threads = 1;  // policy only: results are thread-invariant
      specs_.push_back(std::move(spec));
    }
  }

  Json round(Checks& checks) override {
    Json j = Json::object();
    j["parts"] = Json::array();
    Fnv fp;
    const double t0 = now_s();
    signoff(j, fp);
    j["ops_parts_from"] = j["parts"].size();  // the rest are scenarios
    const double paused_s = sweep(j, fp, checks);
    j["wall_s"] = now_s() - t0 - paused_s;
    j["fingerprint"] = hex64(fp.value());
    pin_.check(hex64(fp.value()), checks, "crosslayer.round_fingerprint");
    ++rounds_;
    return j;
  }

  Json summary(Checks&) override {
    Json j = Json::object();
    j["fingerprint"] = pin_.value();
    j["threads"] = 1;
    j["scenarios"] = kScenarios;
    return j;
  }

 private:
  void signoff(Json& j, Fnv& fp) {
    circuit::CellLibrary lib = circuit::make_skeleton_library("lore-tech");
    circuit::Characterizer ch(
        circuit::CharacterizerConfig{.slew_axis_ps = {10.0, 40.0, 160.0},
                                     .load_axis_ff = {1.0, 4.0, 16.0},
                                     .timestep_ps = 1.0},
        lore::device::SelfHeatingModel{});
    const circuit::AgingFlowConfig base{};
    lore::device::OperatingPoint typical{};
    typical.temperature = base.chip_temperature;
    ch.reset_evaluations();

    double t = now_s();
    {
      Span span("circuit:characterize_library");
      ch.characterize_library(lib, typical, 1);
    }
    j["characterize_s"] = now_s() - t;
    j["parts"].push_back(j["characterize_s"]);

    const auto nl = circuit::generate_core_like(
        lib, circuit::CoreLikeConfig{.pipeline_stages = 2, .regs_per_stage = 4,
                                     .gates_per_stage = 30, .seed = netlist_seed_});
    const circuit::StaEngine sta;
    t = now_s();
    {
      Span span("circuit:sta");
      const auto timing = sta.run(nl, circuit::LibraryDelayModel());
      fp.pod(timing.worst_arrival_ps);
    }
    j["sta_s"] = now_s() - t;
    j["parts"].push_back(j["sta_s"]);

    // A lighter training set than the library default (60 samples x 6
    // temperatures, 120 epochs). The signoff's long calls slow more than the
    // sweep's short parts in a slow phase of the host, so it is kept to a
    // small share of the job.
    circuit::MlLibraryCharacterizer ml(circuit::MlCharacterizerConfig{
        .samples_per_cell = 24,
        .temperature_samples = 3,
        .mlp = {.hidden = {48, 48}, .learning_rate = 3e-3, .epochs = 20, .batch_size = 32}});
    t = now_s();
    {
      Span span("ml:mlp_train");
      ml.train(lib, ch, typical);
    }
    j["mlp_train_s"] = now_s() - t;
    j["parts"].push_back(j["mlp_train_s"]);

    // One part per lifetime: the shorter a part, the likelier one of its
    // repeats runs undisturbed.
    const lore::device::AgingModel model;
    double aging_flow_s = 0.0;
    for (const double years : kLifetimesYears) {
      circuit::AgingFlowConfig point = base;
      point.years = years;
      t = now_s();
      {
        Span span("circuit:aging_flow");
        const auto r = circuit::run_aging_flow(nl, lib, ch, ml, model, point, sta);
        fp.pod(r.exact_aging_guardband());
        fp.pod(r.ml_aging_guardband());
        fp.pod(r.worst_corner_guardband());
      }
      const double seconds = now_s() - t;
      aging_flow_s += seconds;
      j["parts"].push_back(seconds);
    }
    j["aging_flow_s"] = aging_flow_s;
    j["transient_sims"] = ch.evaluations();
  }

  /// Returns the seconds spent in between_parts.
  double sweep(Json& j, Fnv& fp, Checks& checks) {
    Json scenario_ms = Json::array();
    double codec_s = 0.0, invariants_s = 0.0, paused_s = 0.0;
    std::size_t completed = 0, exceptions = 0, codec_rejects = 0, findings = 0;
    std::size_t mc_trials = 0, core_steps = 0;
    double os_sim_ms = 0.0;
    for (const scenario::ScenarioSpec& spec : specs_) {
      if (between_parts) paused_s += between_parts();
      const double a = now_s();
      std::string text;
      std::optional<scenario::ScenarioSpec> parsed;
      {
        Span span("scenario:codec");
        text = scenario::to_json(spec).dump();
        try {
          parsed = scenario::parse_scenario(text, spec.name);
        } catch (const std::exception&) {
          // to_json writes u64 seeds as int64 and parse_scenario rejects the
          // negative ones, so generated specs with a seed >= 2^63 do not
          // round-trip. Counted; the scenario runs from the generated spec.
          ++codec_rejects;
        }
      }
      const double b = now_s();
      codec_s += b - a;
      const scenario::ScenarioSpec& input = parsed ? *parsed : spec;
      scenario::ScenarioResult result;
      std::vector<scenario::InvariantFinding> found;
      try {
        {
          Span span("scenario:run_scenario");
          result = scenario::run_scenario(input);
        }
        const double c = now_s();
        {
          Span span("scenario:check_invariants");
          found = scenario::check_invariants(result);
        }
        invariants_s += now_s() - c;
      } catch (const std::exception& e) {
        ++exceptions;
        checks.expect(false, "scenario.no_exception", spec.name + ": " + e.what());
        continue;
      }
      const double seconds = now_s() - a;
      scenario_ms.push_back(seconds * 1e3);
      j["parts"].push_back(seconds);
      ++completed;

      if (rounds_ == 0 && parsed)
        checks.expect(scenario::to_json(*parsed).dump() == text, "scenario.codec_lossless",
                      spec.name);
      fp.pod(scenario::result_fingerprint(result));
      for (const auto& f : found) {
        fp.str(f.id);
        fp.pod(static_cast<std::uint8_t>(f.severity));
        fp.pod(f.measured);
        fp.pod(f.bound);
      }
      findings += found.size();
      if (result.os)
        os_sim_ms += input.os->duration_ms *
                     static_cast<double>(std::max<std::size_t>(1, input.thermal.size()));
      if (result.rollback) mc_trials += result.rollback->experiment.campaign_report.trials;
      if (result.crosslayer) {
        const auto& cl = *input.crosslayer;
        const std::size_t policies = 1 + result.crosslayer->fixed_policy_rewards.size();
        core_steps += (cl.episodes + cl.eval_episodes * policies) * cl.steps_per_episode;
      }
    }
    j["ops"] = completed;
    j["attempted"] = specs_.size();
    j["failed"] = exceptions;
    j["scenario_ms"] = std::move(scenario_ms);
    j["codec_s"] = codec_s;
    j["codec_rejects"] = codec_rejects;
    j["invariants_s"] = invariants_s;
    j["findings"] = findings;
    j["os_sim_ms"] = os_sim_ms;
    j["mc_trials"] = mc_trials;
    j["core_steps"] = core_steps;
    return paused_s;
  }

  std::uint64_t netlist_seed_;
  std::vector<scenario::ScenarioSpec> specs_;
  RoundPin pin_;
  std::size_t rounds_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_crosslayer(const Options& opt) {
  return std::make_unique<Crosslayer>(opt);
}

}  // namespace perfbench
