// The campaign workloads: fi_plain and fi_resilient.
//
// Both draw their campaigns from one seeded program mix. The families
// and sizes are fixed so runs on different seeds compare like with like; the
// seed draws each program's data (its workload seed), every campaign's base
// seed and the order the campaigns run in.
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <thread>

#include "harness.hpp"
#include "src/arch/features.hpp"
#include "src/arch/pipeline.hpp"
#include "src/arch/workloads.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/fabric/coordinator.hpp"
#include "src/fabric/runners.hpp"
#include "src/fabric/spawn.hpp"
#include "src/ml/predictor.hpp"
#include "src/obs/span.hpp"

namespace perfbench {
namespace {

using lore::CampaignResult;
using lore::CampaignSpec;
using lore::TrialStatus;
using lore::arch::FaultInjector;
using lore::arch::FaultRecord;
using lore::arch::FaultTarget;
using lore::obs::Span;

/// Campaign threads of fi_plain and fi_resilient. One thread keeps the
/// timings steady on a shared host; the predictor warm-up below runs on two.
constexpr unsigned kThreads = 1;

struct ProgramSize {
  const char* name;
  std::size_t scale;
  std::size_t fault_trials;     // per target (register, memory, instruction)
  std::size_t pipeline_trials;
};

// Short programs (71-102 golden cycles) expose per-trial engine overhead;
// bubble_sort (~500 cycles) sits between; matmul (~18k cycles) exposes
// interpretation and takes most of a round. Its trial counts are large
// enough that the seed-drawn share of hung trials, which run to the cycle
// budget, varies little between seeds.
constexpr ProgramSize kMix[] = {
    {"checksum", 12, 8000, 2000},    {"find_max", 16, 8000, 2000},
    {"dot_product", 16, 8000, 2000}, {"bubble_sort", 12, 2000, 500},
    {"matmul", 12, 1600, 160},
};
constexpr FaultTarget kTargets[] = {FaultTarget::kRegister, FaultTarget::kMemory,
                                    FaultTarget::kInstruction};

lore::arch::Workload make_program(const std::string& name, std::size_t scale,
                                  std::uint64_t wseed) {
  using namespace lore::arch;
  if (name == "checksum") return make_checksum(scale, wseed);
  if (name == "find_max") return make_find_max(scale, wseed);
  if (name == "dot_product") return make_dot_product(scale, wseed);
  if (name == "bubble_sort") return make_bubble_sort(scale, wseed);
  return make_matmul(scale, wseed);
}

struct Program {
  std::string name;
  std::size_t scale = 0;
  std::uint64_t wseed = 0;
  lore::arch::Workload workload;
  std::unique_ptr<FaultInjector> injector;  // holds a reference to `workload`
};

/// One campaign identity of the mix.
struct Campaign {
  std::size_t program = 0;
  bool pipeline = false;
  FaultTarget target = FaultTarget::kRegister;
  CampaignSpec spec;  // plain: identity + threads, domain resolved
};

/// The drawn identities, before anything is built.
struct MixDraw {
  std::vector<std::uint64_t> wseeds;  // per kMix entry
  std::vector<Campaign> campaigns;    // spec.domain still empty
};

MixDraw draw_mix(std::uint64_t seed) {
  lore::Rng rng(lore::trial_seed(seed, 0x6d6978));
  MixDraw d;
  for (std::size_t p = 0; p < std::size(kMix); ++p) {
    // Positive int64, so the seed survives the fabric job's JSON params.
    d.wseeds.push_back(rng.next_u64() >> 1);
    for (const FaultTarget t : kTargets) {
      Campaign c;
      c.program = p;
      c.target = t;
      c.spec.trials = kMix[p].fault_trials;
      c.spec.base_seed = rng.next_u64();
      d.campaigns.push_back(c);
    }
    Campaign c;
    c.program = p;
    c.pipeline = true;
    c.spec.trials = kMix[p].pipeline_trials;
    c.spec.base_seed = rng.next_u64();
    d.campaigns.push_back(c);
  }
  for (std::size_t i = d.campaigns.size(); i > 1; --i)
    std::swap(d.campaigns[i - 1], d.campaigns[rng.uniform_index(i)]);
  return d;
}

/// The built mix: workloads, golden runs, injectors, resolved specs.
class FiMix {
 public:
  explicit FiMix(std::uint64_t seed) {
    MixDraw d = draw_mix(seed);
    programs_.reserve(std::size(kMix));
    for (std::size_t p = 0; p < std::size(kMix); ++p) {
      auto prog = std::make_unique<Program>();
      prog->name = kMix[p].name;
      prog->scale = kMix[p].scale;
      prog->wseed = d.wseeds[p];
      prog->workload = make_program(prog->name, prog->scale, prog->wseed);
      const double t0 = now_s();
      {
        Span span("arch:golden");
        prog->injector = std::make_unique<FaultInjector>(prog->workload);
      }
      golden_s_ += now_s() - t0;
      golden_cycles_ += prog->injector->golden().cycles;
      programs_.push_back(std::move(prog));
    }
    campaigns_ = std::move(d.campaigns);
    for (Campaign& c : campaigns_) {
      c.spec.threads = kThreads;
      const Program& p = *programs_[c.program];
      c.spec = c.pipeline ? lore::arch::pipeline_campaign_spec(p.workload, c.spec)
                          : p.injector->resolved_spec(c.spec, c.target);
    }
  }

  const std::vector<Campaign>& campaigns() const { return campaigns_; }
  const Program& program(std::size_t i) const { return *programs_[i]; }
  std::size_t programs() const { return programs_.size(); }
  double golden_s() const { return golden_s_; }
  std::uint64_t golden_cycles() const { return golden_cycles_; }

  /// Run campaign `c` under `spec` (its identity, possibly other policy).
  CampaignResult<FaultRecord> run(const Campaign& c, const CampaignSpec& spec) const {
    const Program& p = *programs_[c.program];
    if (c.pipeline) {
      Span span("arch:pipeline_campaign_run");
      return lore::arch::pipeline_campaign_run(p.workload, spec);
    }
    Span span("arch:campaign_run");
    return p.injector->campaign_run(spec, c.target);
  }

  /// Replay a sample of records through the per-trial reference paths
  /// (`replay_trial`, `pipeline_inject`), independent of the batch engine.
  void check_replay(const Campaign& c, const CampaignResult<FaultRecord>& r,
                    Checks& checks) const {
    constexpr std::size_t kSamples = 16;
    const Program& p = *programs_[c.program];
    const std::size_t n = r.records.size();
    checks.expect(n == c.spec.trials, "campaign.record_count", p.name);
    for (std::size_t k = 0; k < kSamples && n > 0; ++k) {
      const std::size_t i = k * n / kSamples;
      if (r.status[i] != TrialStatus::kOk) continue;
      const FaultRecord& rec = r.records[i];
      checks.expect(rec.trial_seed == lore::trial_seed(c.spec.base_seed, i),
                    "campaign.trial_seed", p.name + " trial " + std::to_string(i));
      bool same = false;
      if (c.pipeline) {
        lore::arch::PipelineFaultSite site;
        site.field = static_cast<lore::arch::LatchField>(rec.site.index);
        site.bit = rec.site.bit;
        site.cycle = rec.site.cycle;
        same = lore::arch::pipeline_inject(p.workload, site) == rec.outcome;
      } else {
        same = p.injector->replay_trial(rec.trial_seed, c.target) == rec;
      }
      checks.expect(same, c.pipeline ? "arch.pipeline.replay" : "arch.fault.replay",
                    p.name + " trial " + std::to_string(i));
    }
  }

 private:
  std::vector<std::unique_ptr<Program>> programs_;
  std::vector<Campaign> campaigns_;
  double golden_s_ = 0.0;
  std::uint64_t golden_cycles_ = 0;
};

/// Per-round accounting of campaign calls.
struct Tally {
  std::size_t attempted = 0, resolved = 0, failed = 0;
  std::size_t campaigns = 0, batch = 0;
  std::size_t checkpoints = 0, retries = 0, timeouts = 0;
  std::size_t fault_trials = 0, pipeline_trials = 0;
  double fault_s = 0.0, pipeline_s = 0.0;
  OutcomeCounts outcomes;
  Fnv fp;
  Json parts = Json::array();  // seconds of each campaign call, in job order

  std::size_t pruned = 0, audits = 0, false_benign = 0, prune_trials = 0;

  /// Pruned campaigns stay out of the fingerprint and the outcome counts:
  /// which trials they skip depends on the predictor, which may differ
  /// between runs.
  void add(const Campaign& c, const CampaignSpec& spec,
           const CampaignResult<FaultRecord>& r, double seconds,
           bool pruned_campaign = false) {
    ++campaigns;
    if (lore::campaign_uses_batch(spec)) ++batch;
    attempted += r.report.trials;
    failed += failed_trials(r.report);
    resolved += r.report.completed + r.report.pruned;
    checkpoints += r.report.checkpoints_written;
    retries += r.report.retries;
    timeouts += r.report.timeouts;
    (c.pipeline ? pipeline_trials : fault_trials) += r.report.trials;
    (c.pipeline ? pipeline_s : fault_s) += seconds;
    parts.push_back(seconds);
    if (pruned_campaign) {
      pruned += r.report.pruned;
      audits += r.report.prune_audits;
      false_benign += r.report.prune_false_benign;
      prune_trials += r.report.trials;
      return;
    }
    outcomes.add(r.records, r.status);
    fingerprint_records(fp, r.records, r.status);
  }

  void write(Json& j) const {
    j["ops"] = resolved;
    j["attempted"] = attempted;
    j["failed"] = failed;
    j["campaigns"] = campaigns;
    j["batch_campaigns"] = batch;
    j["checkpoints_written"] = checkpoints;
    j["retries"] = retries;
    j["timeouts"] = timeouts;
    j["fault_trials"] = fault_trials;
    j["fault_s"] = fault_s;
    j["pipeline_trials"] = pipeline_trials;
    j["pipeline_s"] = pipeline_s;
    j["outcomes"] = outcomes.to_json();
    j["fingerprint"] = hex64(fp.value());
    j["parts"] = parts;
    j["prune_trials"] = prune_trials;
    j["pruned"] = pruned;
    j["audits"] = audits;
    j["false_benign"] = false_benign;
  }
};

void write_mix_facts(Json& j, const FiMix& mix) {
  j["threads"] = kThreads;
  j["golden_s"] = mix.golden_s();
  j["golden_cycles"] = mix.golden_cycles();
  Json programs = Json::array();
  for (std::size_t p = 0; p < mix.programs(); ++p) {
    const Program& prog = mix.program(p);
    programs.push_back(prog.name + "(" + std::to_string(prog.scale) + ") cycles=" +
                       std::to_string(prog.injector->golden().cycles));
  }
  j["programs"] = std::move(programs);
}

// ---------------------------------------------------------------------------
// fi_plain: every campaign of the mix on the batched engine, plain specs.

class FiPlain final : public Workload {
 public:
  explicit FiPlain(const Options& opt) : mix_(opt.seed) {}

  Json round(Checks& checks) override {
    std::vector<CampaignResult<FaultRecord>> results;
    results.reserve(mix_.campaigns().size());
    Tally tally;
    const double t0 = now_s();
    for (const Campaign& c : mix_.campaigns()) {
      const double c0 = now_s();
      results.push_back(mix_.run(c, c.spec));
      tally.add(c, c.spec, results.back(), now_s() - c0);
    }
    Json j = Json::object();
    j["wall_s"] = now_s() - t0;
    tally.write(j);
    if (rounds_++ == 0) {
      for (std::size_t i = 0; i < results.size(); ++i)
        mix_.check_replay(mix_.campaigns()[i], results[i], checks);
    }
    pin_.check(hex64(tally.fp.value()), checks, "fi.round_fingerprint");
    return j;
  }

  Json summary(Checks&) override {
    Json j = Json::object();
    j["fingerprint"] = pin_.value();
    write_mix_facts(j, mix_);
    return j;
  }

 private:
  FiMix mix_;
  RoundPin pin_;
  std::size_t rounds_ = 0;
};

// ---------------------------------------------------------------------------
// fi_resilient: the fi_plain identities with a checkpoint file and a
// per-trial deadline, plus predict-and-prune campaigns on the register
// identities with a warmed GBDT predictor per program, plus the long register
// identity (matmul) dispatched by an in-benchmark Coordinator to forked
// workers.

constexpr double kPruneThreshold = 0.7;
constexpr double kPruneAudit = 0.05;
constexpr std::size_t kWarmupTrials = 3000;
/// The warm-up feeds observations from two threads, so their order — and
/// with it the trained model and the prune counts — can differ from run to
/// run. The benchmark records that spread instead of pinning it away.
constexpr unsigned kWarmupThreads = 2;
constexpr std::size_t kPredictRows = 20000;
/// Fabric workers, one thread each; the in-process denominator of
/// fabric_efficiency runs the same campaign on as many threads.
constexpr unsigned kFabricWorkers = 2;

class FiResilient final : public Workload {
 public:
  explicit FiResilient(const Options& opt)
      : mix_(opt.seed), ckpt_path_(opt.workdir + "/fi_resilient.ckpt") {
    const double t0 = now_s();
    for (std::size_t p = 0; p < mix_.programs(); ++p) {
      lore::ml::PredictorConfig cfg;
      cfg.model = lore::ml::PredictorModel::kGbdt;
      cfg.gbdt.num_rounds = 30;
      predictors_.push_back(std::make_unique<lore::ml::Predictor>(cfg));
      CampaignSpec warm;
      warm.trials = kWarmupTrials;
      warm.base_seed = lore::trial_seed(opt.seed, 0x7761726d + p);
      warm.threads = kWarmupThreads;
      lore::arch::PruneCampaignOptions wopt;
      wopt.feedback_stride = 1;  // every warm-up trial is a training sample
      Span span("ml:warmup");
      mix_.program(p).injector->campaign_run_pruned(warm, FaultTarget::kRegister,
                                                    *predictors_.back(), wopt);
      predictors_.back()->train_now();
    }
    warmup_s_ = now_s() - t0;

    // The fabric part dispatches the matmul register identity.
    const std::size_t big_p = std::size(kMix) - 1;
    const Program& big = mix_.program(big_p);
    for (std::size_t i = 0; i < mix_.campaigns().size(); ++i) {
      const Campaign& c = mix_.campaigns()[i];
      if (c.program == big_p && !c.pipeline && c.target == FaultTarget::kRegister)
        fabric_campaign_ = i;
    }
    fabric_params_ = Json::object();
    fabric_params_["workload"] = big.name;
    fabric_params_["scale"] = big.scale;
    fabric_params_["wseed"] = static_cast<std::int64_t>(big.wseed);
    fabric_params_["target"] = "register";
    CampaignSpec spec;
    spec.trials = mix_.campaigns()[fabric_campaign_].spec.trials;
    spec.base_seed = mix_.campaigns()[fabric_campaign_].spec.base_seed;
    spec.threads = 1;
    const auto resolved = lore::fabric::resolve_job_spec("arch.fault", fabric_params_, spec);
    if (!resolved) throw std::runtime_error("fi_resilient: fabric job spec did not resolve");
    fabric_spec_ = *resolved;

    // A fixed block of featurized matmul register sites for the inference
    // timing (ml.predict_rows_per_s).
    const lore::arch::FaultSiteFeaturizer featurizer(big.workload,
                                                     big.injector->golden().cycles);
    predict_block_.resize(kPredictRows * lore::arch::kFaultSiteFeatureDim);
    lore::Rng rng(lore::trial_seed(opt.seed, 0x70726564));
    for (std::size_t i = 0; i < kPredictRows; ++i) {
      const auto site = big.injector->random_site(rng, FaultTarget::kRegister);
      featurizer.featurize(site, std::span<double>(predict_block_).subspan(
                                     i * lore::arch::kFaultSiteFeatureDim,
                                     lore::arch::kFaultSiteFeatureDim));
    }
  }

  Json round(Checks& checks) override {
    Tally tally;
    std::size_t ckpt_bytes = 0;
    std::vector<CampaignResult<FaultRecord>> results;
    results.reserve(mix_.campaigns().size());
    const double t0 = now_s();
    for (const Campaign& c : mix_.campaigns()) {
      CampaignSpec spec = c.spec;
      spec.checkpoint_path = ckpt_path_;
      spec.checkpoint_every = std::max<std::size_t>(64, spec.trials / 4);
      spec.trial_deadline = std::chrono::milliseconds(2000);
      std::filesystem::remove(ckpt_path_);  // a leftover file would resume
      const double c0 = now_s();
      results.push_back(mix_.run(c, spec));
      tally.add(c, spec, results.back(), now_s() - c0);
      std::error_code ec;
      const auto size = std::filesystem::file_size(ckpt_path_, ec);
      if (!ec) ckpt_bytes += static_cast<std::size_t>(size);
    }
    std::filesystem::remove(ckpt_path_);

    // Predict-and-prune over the register identities (plain specs).
    std::vector<std::pair<std::size_t, CampaignResult<FaultRecord>>> pruned_results;
    for (std::size_t i = 0; i < mix_.campaigns().size(); ++i) {
      const Campaign& c = mix_.campaigns()[i];
      if (c.pipeline || c.target != FaultTarget::kRegister) continue;
      lore::arch::PruneCampaignOptions popt;
      popt.audit_fraction = kPruneAudit;
      popt.benign_threshold = kPruneThreshold;
      const double c0 = now_s();
      CampaignResult<FaultRecord> r = [&] {
        Span span("arch:campaign_run_pruned");
        return mix_.program(c.program).injector->campaign_run_pruned(
            c.spec, FaultTarget::kRegister, *predictors_[c.program], popt);
      }();
      tally.add(c, c.spec, r, now_s() - c0, /*pruned_campaign=*/true);
      pruned_results.emplace_back(i, std::move(r));
    }

    Json j = Json::object();
    dispatch(results[fabric_campaign_], tally, j, checks);
    const double wall = now_s() - t0;

    // The denominator of fabric_efficiency, outside the job: the same
    // campaign in-process on as many threads as the fabric has workers.
    {
      CampaignSpec local = fabric_spec_;
      local.threads = kFabricWorkers;
      const double l0 = now_s();
      const auto ref = mix_.run(mix_.campaigns()[fabric_campaign_], local);
      j["inproc_s"] = now_s() - l0;
      j["inproc_ops"] = ref.report.completed;
      tally.attempted += ref.report.trials;
      tally.failed += failed_trials(ref.report);
      checks.expect(same_records(ref, results[fabric_campaign_]),
                    "fabric.inprocess_equals_checkpointed");
    }

    // Inference hot path on a fixed block.
    double predict_s = 0.0;
    if (const auto snap = predictors_.back()->snapshot()) {
      std::vector<double> p(kPredictRows);
      const double i0 = now_s();
      Span span("ml:predict_benign");
      snap->predict_benign(predict_block_.data(), kPredictRows, p, 1);
      predict_s = now_s() - i0;
    }

    // Checkpointing is policy, not identity: every round reproduces the
    // first, and summary() compares it with the plain engine. Executed
    // trials of a pruned campaign equal the unpruned records.
    pin_.check(hex64(tally.fp.value()), checks, "fi_resilient.round_fingerprint");
    if (rounds_++ == 0) {
      for (std::size_t i = 0; i < results.size(); ++i)
        mix_.check_replay(mix_.campaigns()[i], results[i], checks);
    }
    for (const auto& [i, r] : pruned_results) {
      const auto& ref = results[i];
      bool same = r.records.size() == ref.records.size();
      for (std::size_t t = 0; same && t < r.records.size(); ++t) {
        if (r.status[t] == TrialStatus::kPruned) continue;
        same = r.status[t] == TrialStatus::kOk && r.records[t] == ref.records[t];
      }
      checks.expect(same, "ml.prune.executed_match_plain",
                    mix_.program(mix_.campaigns()[i].program).name);
    }

    j["wall_s"] = wall;
    tally.write(j);
    j["checkpoint_bytes"] = ckpt_bytes;
    j["predict_rows"] = predict_s > 0.0 ? kPredictRows : 0;
    j["predict_s"] = predict_s;
    return j;
  }

  Json summary(Checks& checks) override {
    // The same identities on the plain engine, untimed.
    Tally plain;
    for (const Campaign& c : mix_.campaigns()) plain.add(c, c.spec, mix_.run(c, c.spec), 0.0);
    const std::string plain_fp = hex64(plain.fp.value());
    checks.expect(plain_fp == pin_.value(), "fi_resilient.checkpointed_equals_plain",
                  pin_.value() + " != " + plain_fp);
    Json j = Json::object();
    j["fingerprint"] = pin_.value();
    write_mix_facts(j, mix_);
    j["warmup_s"] = warmup_s_;
    Json versions = Json::array();
    for (const auto& p : predictors_) versions.push_back(static_cast<std::int64_t>(p->version()));
    j["predictor_versions"] = std::move(versions);
    j["fabric_workers"] = kFabricWorkers;
    j["fabric_params"] = fabric_params_;
    return j;
  }

 private:
  static bool same_records(const CampaignResult<FaultRecord>& a,
                           const CampaignResult<FaultRecord>& b) {
    return a.records == b.records && a.status == b.status;
  }

  /// The fabric part of the job: bind a Coordinator, fork the workers while
  /// the process is single-threaded (between bind and serve), serve the
  /// job, merge and decode. Worker spawn plus hello is timed apart from the
  /// rest, which is the part's time. The merged records must equal the
  /// in-process checkpointed ones.
  void dispatch(const CampaignResult<FaultRecord>& expected, Tally& tally, Json& j,
                Checks& checks) {
    const std::size_t trials = fabric_spec_.trials;
    lore::fabric::CoordinatorConfig cfg;
    cfg.expected_workers = kFabricWorkers;
    cfg.scrape_interval = std::chrono::milliseconds(0);  // workers serve no /metrics
    lore::fabric::Coordinator coord;
    const double s0 = now_s();
    if (!coord.bind(cfg)) {
      checks.expect(false, "fabric.bind");
      tally.attempted += trials;
      tally.failed += trials;
      return;
    }
    std::vector<pid_t> pids;
    lore::fabric::SpawnOptions so;
    so.threads = 1;
    so.metrics_port = -2;
    for (unsigned w = 0; w < kFabricWorkers; ++w)
      pids.push_back(lore::fabric::fork_local_worker(coord.port(), so, coord.listen_fd()));

    const bool traced = lore::obs::TraceRecorder::global().recording();
    std::optional<lore::obs::TraceContextScope> scope;
    if (traced) scope.emplace(lore::obs::TraceContext{lore::obs::make_trace_id(), 0});
    std::optional<Span> root;
    root.emplace("fabric:dispatch");

    coord.serve({"arch.fault", fabric_params_, fabric_spec_});
    while (coord.snapshot().workers_seen < kFabricWorkers && now_s() - s0 < 30.0)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    const double t0 = now_s();
    const bool complete = coord.wait(std::chrono::milliseconds(60000));
    const double t_wait = now_s();
    const lore::CampaignCheckpoint merged = coord.finish();
    const auto fleet = lore::fabric::records_from_checkpoint("arch.fault", fabric_spec_, merged);
    const double t_end = now_s();
    root.reset();
    scope.reset();
    const lore::fabric::FleetSnapshot snap = coord.snapshot();

    // A worker idling in `wait` when finish() closes its socket exits 1
    // ("connection lost"); that is how the fabric ends, so exit codes are
    // recorded, not checked.
    double children_rss_mb = 0.0;
    std::size_t nonzero_exits = 0;
    for (const pid_t pid : pids) {
      int status = 0;
      rusage ru{};
      if (pid > 0 && wait4(pid, &status, 0, &ru) == pid) {
        children_rss_mb += static_cast<double>(ru.ru_maxrss) / 1024.0;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ++nonzero_exits;
      }
      checks.expect(pid > 0, "fabric.worker_spawned");
    }
    checks.expect(complete, "fabric.complete");
    checks.expect(fleet && same_records(*fleet, expected), "fabric.merged_equals_inprocess");

    // Trials missing from the merge (failed, timed out, never returned) and
    // rejected payloads; duplicates discarded after a steal are not failures.
    const std::size_t resolved = fleet ? fleet->report.completed : 0;
    tally.attempted += trials + snap.payload_rejects;
    tally.failed += (trials - resolved) + snap.payload_rejects;
    tally.resolved += resolved;
    tally.parts.push_back(t_end - t0);
    j["fabric_ops"] = resolved;
    j["fabric_s"] = t_end - t0;
    j["spawn_s"] = t0 - s0;
    j["compute_s"] = t_wait - t0;
    j["merge_s"] = t_end - t_wait;
    j["wire_bytes"] = lore::encode_checkpoint(merged).size();
    j["shards"] = snap.shards_done;
    j["steals"] = snap.steals;
    j["duplicates_discarded"] = snap.duplicates_discarded;
    j["payload_rejects"] = snap.payload_rejects;
    j["children_peak_rss_mb"] = children_rss_mb;
    j["worker_nonzero_exits"] = nonzero_exits;
  }

  FiMix mix_;
  std::string ckpt_path_;
  std::vector<std::unique_ptr<lore::ml::Predictor>> predictors_;
  double warmup_s_ = 0.0;
  std::vector<double> predict_block_;
  std::size_t fabric_campaign_ = 0;
  Json fabric_params_;
  CampaignSpec fabric_spec_;
  RoundPin pin_;
  std::size_t rounds_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fi_plain(const Options& opt) {
  return std::make_unique<FiPlain>(opt);
}
std::unique_ptr<Workload> make_fi_resilient(const Options& opt) {
  return std::make_unique<FiResilient>(opt);
}

}  // namespace perfbench
