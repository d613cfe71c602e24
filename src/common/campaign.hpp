// Resilient campaign runtime — the one API every long-running statistical
// campaign in LORE shares (Sec. III fault-injection/AVF sweeps, the Fig. 5
// rollback Monte Carlo, circuit stuck-at and cell-characterization grids).
//
// A `CampaignSpec` names everything about a campaign: its identity (trial
// count, base seed, a domain fingerprint) and its resilience policy (worker
// threads, per-trial deadline, overall budget, retry/backoff, checkpoint path
// and interval). `run_campaign<Record>` executes it on one chunked executor
// over `parallel_for_chunks` (DESIGN.md §9, §11); every resilience feature a
// multi-hour production run needs to survive preemption, hangs, and crashes
// is a stage of that loop:
//
//  * checkpoint/resume — completed records are snapshotted at chunk
//    boundaries into an atomically-renamed, CRC-guarded file; on start a
//    matching checkpoint (identity hash + build tag) is loaded and only the
//    missing trial indices re-run. Because every trial's RNG stream is a
//    pure function of (base_seed, index), a resumed campaign is bit-identical
//    to an uninterrupted one at any thread count.
//  * per-trial deadlines — each attempt gets a `CancelToken`; bodies poll it
//    (`throw_if_cancelled`) and a timed-out trial is retried with exponential
//    backoff, then recorded as `TrialStatus::kTimeout` instead of aborting
//    the run. Trial exceptions are likewise retried, tallied, and degraded
//    into the final `CampaignReport`.
//  * budget and per-run cap — bounded invocations that leave the rest
//    kSkipped for the next resume.
//  * predict-and-prune (DESIGN.md §13) and the fabric's shard range (§12).
//  * observability — trials-complete counters, checkpoint-write histogram,
//    timeout/retry counters and an ETA gauge through `src/obs`.
//
// The convention for campaign call sites (see DESIGN.md §9): each domain
// exposes `<name>_run(..., const CampaignSpec&, <Options>)` returning records
// plus the `CampaignReport`, and a thin `<name>(...)` convenience returning
// just the domain payload.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/common/arena.hpp"
#include "src/common/kernels.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/obs/obs.hpp"

namespace lore {

/// Final disposition of one trial in a campaign.
enum class TrialStatus : std::uint8_t {
  kOk,       // completed (possibly after retries), record present
  kTimeout,  // every attempt exceeded the per-trial deadline
  kFailed,   // every attempt threw a non-timeout exception
  kSkipped,  // never attempted (overall budget exhausted / per-run trial cap)
  kPruned,   // skipped as predicted-benign by the prune stage (DESIGN.md §13)
};

const char* trial_status_name(TrialStatus s);

/// Thrown by trial bodies (via CancelToken::throw_if_cancelled) when their
/// deadline has passed; the engine converts it into a timeout + retry rather
/// than a campaign failure.
struct TrialTimeout : std::runtime_error {
  TrialTimeout() : std::runtime_error("trial deadline exceeded") {}
};

/// Cooperative cancellation handle passed to every trial attempt. Bodies poll
/// `cancelled()` (or call `throw_if_cancelled()`) at natural phase boundaries
/// — per gate, per grid row, per scheduler — and must signal cancellation by
/// throwing (normal return always counts as success). A default-constructed
/// token never cancels.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;

  static CancelToken with_deadline(Clock::time_point deadline) {
    CancelToken t;
    t.has_deadline_ = true;
    t.deadline_ = deadline;
    return t;
  }

  bool cancelled() const { return has_deadline_ && Clock::now() >= deadline_; }

  void throw_if_cancelled() const {
    if (cancelled()) throw TrialTimeout();
  }

 private:
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
};

/// Everything that defines a campaign. The *identity* fields (trials,
/// base_seed, domain) determine the records and are hashed into checkpoints;
/// the *policy* fields (threads, deadlines, budget, checkpointing, retries)
/// only shape execution, so a checkpoint taken under one policy resumes
/// cleanly under another — e.g. interrupt at 4 threads, resume at 32.
struct CampaignSpec {
  // -- identity --------------------------------------------------------------
  std::size_t trials = 0;
  std::uint64_t base_seed = 0;
  /// Campaign-kind + payload fingerprint (set by the domain entry point, e.g.
  /// "arch.fault/9f3a..."); folded into the checkpoint identity hash so a
  /// checkpoint can never be replayed against a different workload.
  std::string domain{};

  // -- policy ----------------------------------------------------------------
  /// Worker threads (0 = hardware_concurrency, 1 = serial).
  unsigned threads = 0;
  /// Per-trial deadline; 0 = none. Timed-out trials retry, then degrade.
  std::chrono::milliseconds trial_deadline{0};
  /// Wall-clock budget for this invocation; 0 = none. Trials not started
  /// before it expires are left kSkipped (and picked up by a resume).
  std::chrono::milliseconds overall_budget{0};
  /// Extra attempts after a timeout or trial exception.
  unsigned max_retries = 2;
  /// Backoff before retry k is `retry_backoff << k`.
  std::chrono::milliseconds retry_backoff{1};
  /// Checkpoint file; empty = checkpointing off.
  std::string checkpoint_path{};
  /// Completed trials between checkpoint writes.
  std::size_t checkpoint_every = 64;
  /// Cap on trials attempted by this invocation (0 = unlimited) — lets an
  /// operator run a huge campaign in bounded slices, one resume per slice.
  std::size_t max_trials_per_run = 0;

  /// FNV-1a over the identity fields only.
  std::uint64_t identity_hash() const;
};

/// Aggregate outcome of one `run_campaign` invocation.
struct CampaignReport {
  std::size_t trials = 0;
  std::size_t completed = 0;  // includes trials restored from a checkpoint
  std::size_t resumed = 0;    // subset of completed restored from a checkpoint
  std::size_t timeouts = 0;   // trials whose final status is kTimeout
  std::size_t failed = 0;     // trials whose final status is kFailed
  std::size_t skipped = 0;    // never attempted (budget / per-run cap)
  std::size_t pruned = 0;            // skipped as predicted-benign
  std::size_t prune_audits = 0;      // predicted-benign trials executed anyway
  std::size_t prune_false_benign = 0;  // audits whose true outcome was not benign
  bool prune_disabled = false;  // the controller tripped during this run
  std::size_t retries = 0;         // attempts beyond the first, all trials
  std::size_t timeout_attempts = 0;     // individual attempts that timed out
  std::size_t suppressed_exceptions = 0;  // attempts that threw (non-timeout)
  std::size_t checkpoints_written = 0;
  bool loaded_checkpoint = false;
  std::string first_error;  // message of the first suppressed trial exception

  bool complete() const { return completed == trials; }
};

/// Records + per-trial status + report. `records[i]` is value-initialized
/// whenever `status[i] != kOk`.
template <typename Record>
struct CampaignResult {
  std::vector<Record> records;
  std::vector<TrialStatus> status;
  CampaignReport report;
};

/// Thrown by ByteReader on truncated/corrupt payload bytes.
struct CheckpointError : std::runtime_error {
  explicit CheckpointError(const std::string& what) : std::runtime_error(what) {}
};

/// Little-endian byte serialization for checkpoint payloads.
class ByteWriter {
 public:
  void put_u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void put_u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) put_u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void put_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) put_u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void put_f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    put_u64(bits);
  }
  void put_bytes(const void* data, std::size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }
  void put_str(std::string_view s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s);
  }
  std::string take() && { return std::move(buf_); }
  const std::string& str() const { return buf_; }

 private:
  std::string buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t get_u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint32_t get_u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(get_u8()) << (8 * i);
    return v;
  }
  std::uint64_t get_u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(get_u8()) << (8 * i);
    return v;
  }
  double get_f64() {
    const std::uint64_t bits = get_u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  void get_bytes(void* out, std::size_t n) {
    need(n);
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
  }
  std::string get_str() {
    const std::uint32_t n = get_u32();
    need(n);
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) throw CheckpointError("truncated payload");
  }
  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Default codec for trivially-copyable records. Domain records with pointers
/// or containers define their own codec struct with the same two members.
template <typename Record>
struct PodCodec {
  static_assert(std::is_trivially_copyable_v<Record>,
                "PodCodec needs a trivially copyable Record; write a custom codec");
  static void encode(ByteWriter& w, const Record& r) { w.put_bytes(&r, sizeof r); }
  static Record decode(ByteReader& r) {
    Record rec{};
    r.get_bytes(&rec, sizeof rec);
    return rec;
  }
};

// ---------------------------------------------------------------------------
// Checkpoint persistence (exposed so tests and tooling can craft/inspect
// files; campaigns only ever touch it through run_campaign).

struct CheckpointEntry {
  std::uint64_t trial = 0;
  std::string payload;
};

struct CampaignCheckpoint {
  std::uint64_t identity = 0;  // CampaignSpec::identity_hash() of the producer
  std::string build_tag;       // git-describe of the producing binary
  std::uint64_t trials = 0;
  std::vector<CheckpointEntry> entries;
};

/// git-describe tag baked into this binary (LORE_BUILD_TAG; "unknown" when
/// built outside git). Checkpoints from a different build are not trusted.
std::string checkpoint_build_tag();

/// Serialize to the LORECKP1 wire format (magic, version, identity, build
/// tag, trial count, entries, trailing CRC-32) — the exact bytes
/// `write_checkpoint` puts on disk, reused by the campaign fabric as the
/// shard hand-off payload (DESIGN.md §12).
std::string encode_checkpoint(const CampaignCheckpoint& ck);

/// Parse + validate LORECKP1 bytes against `spec`: magic, version, CRC,
/// identity hash, trial count, build tag, entry ranges. Any problem warns on
/// stderr — naming `source` (a file path or "shard 3 from worker-1") and,
/// for identity/build-tag mismatches, both the expected and found values so
/// a mis-routed payload is diagnosable — and returns nullopt.
std::optional<CampaignCheckpoint> decode_checkpoint(std::string_view bytes,
                                                    const CampaignSpec& spec,
                                                    std::string_view source);

/// Serialize + CRC-guard + atomically rename into place (write to
/// `path.tmp`, fsync-free rename). Returns false on I/O failure or when
/// checkpointing is compiled out.
bool write_checkpoint(const std::string& path, const CampaignCheckpoint& ck);

/// Load `path` and validate magic, version, CRC, identity hash, trial count,
/// and build tag against `spec`. Any problem — missing file aside — warns on
/// stderr with the reason and returns nullopt, so a corrupted/truncated/stale
/// checkpoint degrades to a fresh run instead of poisoning it.
std::optional<CampaignCheckpoint> load_checkpoint(const std::string& path,
                                                  const CampaignSpec& spec);

/// `$LORE_CHECKPOINT_DIR/<name>.ckpt` when the environment variable is set
/// and non-empty, otherwise "" (checkpointing off). The hook benches use so
/// `LORE_CHECKPOINT_DIR=... reproduce.sh` is interruptible end-to-end.
std::string default_checkpoint_path(std::string_view campaign_name);

// ---------------------------------------------------------------------------
// Shard construction + checkpoint merge — the campaign fabric's hand-off
// units (DESIGN.md §12). A coordinator splits a spec's [0, trials) index
// range into contiguous shards, workers run each shard with the identical
// counter-based per-trial seeding, results travel back as LORECKP1 payloads,
// and the coordinator folds them together entry by entry. Because every
// trial's stream is a pure function of (base_seed, index), the merged result
// is bit-identical to a single-process run at any shard/worker count.

/// Half-open sub-range [begin, end) of a campaign's trial indices.
struct TrialRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
  friend bool operator==(const TrialRange&, const TrialRange&) = default;
};

/// Split [0, trials) into `shard_count` contiguous near-equal ranges (the
/// first `trials % shard_count` ranges are one longer). Empty ranges are
/// never produced: asking for more shards than trials yields `trials`
/// one-trial shards.
std::vector<TrialRange> shard_trial_ranges(std::size_t trials, std::size_t shard_count);

/// Merge `from`'s entries into `into`, discarding duplicates by trial index
/// (first valid result wins — the fabric's rule for stolen-then-completed
/// straggler shards) and entries outside [0, into.trials). `seen` is the
/// merger's occupancy bitmap, one byte per trial of `into`; it is updated in
/// place so a long-lived merger stays O(new entries). Returns the number of
/// entries accepted.
std::size_t merge_checkpoint_entries(CampaignCheckpoint& into,
                                     const CampaignCheckpoint& from,
                                     std::vector<std::uint8_t>& seen);

/// Convenience over the three-argument form: rebuilds the occupancy bitmap
/// from `into`'s current entries each call (fine for tests and one-shot
/// merges).
std::size_t merge_checkpoint_entries(CampaignCheckpoint& into,
                                     const CampaignCheckpoint& from);

/// Decode a (fully or partially) merged checkpoint into campaign records:
/// entries become kOk records via `Codec`, absent trials stay kSkipped.
/// Throws CheckpointError on a corrupt payload (fabric payloads are CRC-
/// verified on receipt, so this indicates a codec mismatch).
template <typename Record, typename Codec = PodCodec<Record>>
CampaignResult<Record> result_from_checkpoint(const CampaignSpec& spec,
                                              const CampaignCheckpoint& ck) {
  CampaignResult<Record> out;
  out.records.resize(spec.trials);
  out.status.assign(spec.trials, TrialStatus::kSkipped);
  out.report.trials = spec.trials;
  for (const auto& e : ck.entries) {
    const auto i = static_cast<std::size_t>(e.trial);
    if (i >= spec.trials || out.status[i] == TrialStatus::kOk) continue;
    ByteReader r(e.payload);
    out.records[i] = Codec::decode(r);
    out.status[i] = TrialStatus::kOk;
    ++out.report.completed;
  }
  out.report.skipped = spec.trials - out.report.completed;
  return out;
}


// ---------------------------------------------------------------------------
// Online predict-and-prune stage (DESIGN.md §13).

/// Audit-fraction resolution: explicit request in [0, 1] > LORE_PRUNE_AUDIT
/// environment variable > 0.05. The audit fraction is the share of
/// predicted-benign trials that execute anyway so the live false-benign rate
/// is measurable (and feeds back into training).
double resolve_prune_audit(double requested);

/// True when pruned trial `index` is selected for audit: a pure function of
/// (audit_seed, index), so the audit subsample is identical at any thread or
/// chunk count — the same determinism contract as trial seeding.
inline bool prune_audit_selected(std::uint64_t audit_seed, std::size_t index,
                                 double fraction) {
  if (fraction >= 1.0) return true;
  if (fraction <= 0.0) return false;
  const std::uint64_t z = kernels::scalar::trial_seed_at(audit_seed, index);
  return static_cast<double>(z >> 11) * 0x1.0p-53 < fraction;
}

/// Shared safety breaker for predict-and-prune campaigns: counts pruned /
/// audited / false-benign trials and disables pruning for good when the
/// audit-measured false-benign rate crosses the alert threshold (with at
/// least `min_audits` audits behind it). Tripping publishes obs counters and
/// a kAlert event into the PR 5 health loop — graceful degradation back to
/// full execution, never silent accuracy loss. Thread-safe; share one
/// controller across campaigns to accumulate audit statistics.
class PruneController {
 public:
  struct Config {
    /// False-benign rate (false_benign / audits) that trips the breaker.
    double false_benign_alert = 0.2;
    /// Audits required before the rate is trusted.
    std::size_t min_audits = 20;
  };

  PruneController() = default;
  explicit PruneController(Config cfg) : cfg_(cfg) {}

  bool enabled() const { return !tripped_.load(std::memory_order_relaxed); }
  bool tripped() const { return tripped_.load(std::memory_order_relaxed); }

  void record_pruned(std::size_t n) {
    pruned_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Record one audited trial's ground truth; may trip the breaker.
  void record_audit(bool was_benign);
  /// Manually trip (health loop / operator hook).
  void disable(const char* reason);

  std::size_t pruned() const { return pruned_.load(std::memory_order_relaxed); }
  std::size_t audits() const { return audits_.load(std::memory_order_relaxed); }
  std::size_t false_benign() const {
    return false_benign_.load(std::memory_order_relaxed);
  }
  double false_benign_rate() const {
    const auto a = audits();
    return a == 0 ? 0.0 : static_cast<double>(false_benign()) / static_cast<double>(a);
  }
  const Config& config() const { return cfg_; }

 private:
  Config cfg_{};
  std::atomic<std::size_t> pruned_{0}, audits_{0}, false_benign_{0};
  std::atomic<bool> tripped_{false};
};

/// Prune-stage hooks for `run_campaign`. With no `predict` hook nothing is
/// pruned. `predict` scores one contiguous run of a chunk's trials — `benign[i - begin] = 1` marks trial i predicted-benign —
/// from whatever descriptor the domain derives from the trial seed (the seed
/// span holds `trial_seed(spec.base_seed, i)` for the chunk, the same seeds
/// the trial bodies will draw). `is_benign` maps an executed Record to ground
/// truth for audit statistics; `on_executed` observes every executed trial
/// (prediction feedback / training — sampling is the callee's business).
template <typename Record>
struct PruneHooks {
  std::function<void(std::size_t begin, std::size_t end,
                     std::span<const std::uint64_t> seeds, std::span<std::uint8_t> benign)>
      predict;
  std::function<bool(const Record&)> is_benign;
  std::function<void(std::size_t index, const Record& record, bool predicted_benign,
                     bool audited)>
      on_executed;
  /// Fraction of predicted-benign trials executed anyway as audits
  /// (< 0 = resolve_prune_audit: LORE_PRUNE_AUDIT or 0.05).
  double audit_fraction = -1.0;
  /// Seed of the audit subsample (0 = derived from spec.base_seed).
  std::uint64_t audit_seed = 0;
  /// Optional shared breaker; when it trips, later chunks execute in full.
  PruneController* controller = nullptr;
};

// ---------------------------------------------------------------------------
// Engine

namespace campaign_detail {

/// Trials per chunk when the caller pins none: about eight chunks per worker
/// so uneven trial costs balance (a single worker takes the maximum), at
/// most 256 so a chunk's seed and score scratch stays small, and at most
/// `checkpoint_every` (when non-zero) so snapshots land on that interval.
std::size_t derive_chunk(std::size_t trials, unsigned threads,
                         std::size_t checkpoint_every);

/// The trial indices one invocation runs: ascending, disjoint, contiguous
/// runs addressed by position [0, size()), so `parallel_for_chunks` can split
/// them at deterministic boundaries without a chunk ever straddling a gap.
class TrialPlan {
 public:
  /// Every index of `range`.
  explicit TrialPlan(TrialRange range);
  /// The indices whose status is not kOk, limited to the first `cap` of them
  /// (0 = no limit).
  static TrialPlan missing(std::span<const TrialStatus> status, std::size_t cap);

  std::size_t size() const { return size_; }

  /// `fn(begin, end)` for each contiguous index run covering positions
  /// [pos, pos_end).
  template <typename Fn>
  void for_each_run(std::size_t pos, std::size_t pos_end, Fn&& fn) const {
    auto r = static_cast<std::size_t>(
        std::upper_bound(starts_.begin(), starts_.end(), pos) - starts_.begin() - 1);
    while (pos < pos_end) {
      const std::size_t begin = runs_[r].begin + (pos - starts_[r]);
      const std::size_t end = std::min(runs_[r].end, begin + (pos_end - pos));
      fn(begin, end);
      pos += end - begin;
      ++r;
    }
  }

 private:
  TrialPlan() = default;
  void add(std::size_t begin, std::size_t end);

  std::vector<TrialRange> runs_;
  std::vector<std::size_t> starts_;  // position of runs_[k].begin
  std::size_t size_ = 0;
};

/// Per-chunk tallies, folded into the RunState once per chunk.
struct ChunkTally {
  std::size_t ok = 0, pruned = 0, audits = 0, false_benign = 0;
};

/// The non-template half of the executor: atomic tallies, the first
/// suppressed error, obs instruments resolved once, and checkpoint
/// publication. Per-trial work touches it only on retries, timeouts and
/// failures; everything else is folded in once per chunk.
class RunState {
 public:
  using Clock = CancelToken::Clock;

  /// `checkpointing` allocates one publication flag per trial of `spec`.
  RunState(const CampaignSpec& spec, bool pruning, bool checkpointing);

  Clock::time_point start() const { return start_; }

  /// Count retry `attempt` (>= 1) of trial `index` and sleep its backoff.
  void retry(std::size_t index, unsigned attempt);
  void timed_out(std::size_t index, unsigned attempt);
  void failed(std::size_t index, unsigned attempt, const char* what);

  /// Mark trials restored from a checkpoint (before any chunk runs).
  void resumed(std::size_t count);
  /// Fold one finished chunk in. True when a checkpoint snapshot is due.
  bool end_chunk(std::size_t begin, const ChunkTally& t, PruneController* controller);

  /// Checkpoint publication: a slot's record is stored before its flag is
  /// released, and a snapshot reads only acquired slots, so snapshots can
  /// run alongside chunk execution.
  bool checkpointing() const { return published_ != nullptr; }
  void publish(std::size_t i) { published_[i].store(1, std::memory_order_release); }
  bool published(std::size_t i) const {
    return published_[i].load(std::memory_order_acquire) != 0;
  }
  /// Serializes snapshot writes; chunks only try-lock it, so a busy writer
  /// never stalls the trial loop (the next due snapshot catches up).
  std::mutex& snapshot_mutex() { return snapshot_mu_; }
  /// Write `ck` to the spec's checkpoint path and record the write.
  void write_snapshot(const CampaignCheckpoint& ck);
  /// True when this invocation completed at least one trial.
  bool fresh() const { return fresh_.load(std::memory_order_relaxed) > 0; }

  /// Tally statuses and counters into `rep`.
  void finish(CampaignReport& rep, std::span<const TrialStatus> status,
              const PruneController* controller);

 private:
  const CampaignSpec& spec_;
  const Clock::time_point start_ = Clock::now();
  std::unique_ptr<std::atomic<std::uint8_t>[]> published_;
  std::mutex snapshot_mu_;
  std::mutex error_mu_;
  std::string first_error_;
  std::atomic<std::size_t> retries_{0}, timeout_attempts_{0}, suppressed_{0};
  std::atomic<std::size_t> audits_{0}, false_benign_{0};
  std::atomic<std::size_t> done_{0}, fresh_{0}, since_snapshot_{0};
  std::atomic<std::size_t> checkpoints_written_{0};
  bool pruning_ = false;
  obs::MetricsRegistry* registry_ = nullptr;  // null while obs is off
  obs::Counter* completed_counter_ = nullptr;
  obs::Gauge* progress_gauge_ = nullptr;
  obs::Counter* pruned_counter_ = nullptr;
  obs::Counter* audit_counter_ = nullptr;
  obs::Counter* false_benign_counter_ = nullptr;
};

/// Which optional stages an invocation runs.
struct Stages {
  std::size_t chunk = 0;  // 0 = derive_chunk
  /// Fabric shard rule: a trial that exhausts its retries rethrows, failing
  /// the invocation as a unit. Shards also ignore the budget.
  bool shard = false;
};

/// The one trial loop. Runs every index of `plan` into `out` (slot of trial
/// i = i - `base`): per chunk it derives the trial seeds with the batched
/// kernel, scores them with `hooks.predict` when pruning, then executes each
/// trial — budget check, fresh Rng per attempt, per-attempt deadline,
/// retries — writing the record straight into its slot. At chunk boundaries
/// it folds tallies into `state` and, when a snapshot is due, writes one
/// through `snapshot`.
template <typename Record, typename TrialFn, typename Snapshot>
void execute(const CampaignSpec& spec, const Stages& stages, const TrialPlan& plan,
             std::size_t base, TrialFn& trial, const PruneHooks<Record>& hooks,
             CampaignResult<Record>& out, RunState& state, const Snapshot& snapshot) {
  using Clock = RunState::Clock;
  const bool pruning = static_cast<bool>(hooks.predict);
  const double audit_fraction = pruning ? resolve_prune_audit(hooks.audit_fraction) : 0.0;
  // Decorrelate the audit subsample from the trial seed stream by default.
  const std::uint64_t audit_seed =
      hooks.audit_seed != 0 ? hooks.audit_seed : spec.base_seed ^ 0x9e3779b97f4a7c15ULL;
  const bool deadline = spec.trial_deadline.count() > 0;
  const bool budget = !stages.shard && spec.overall_budget.count() > 0;
  const std::size_t chunk = stages.chunk ? stages.chunk
                                         : derive_chunk(plan.size(), spec.threads,
                                                        state.checkpointing()
                                                            ? spec.checkpoint_every
                                                            : 0);

  // Chunk spans nest under the caller's ambient span (a fabric shard span, a
  // scenario stage, ...), so a fleet trace shows each worker's chunk-level
  // progress; the scope also stamps trial events for the flight recorder.
  const obs::TraceContext trace_ctx = obs::current_trace_context();
  parallel_for_chunks(plan.size(), spec.threads, chunk, [&](std::size_t p0, std::size_t p1) {
    obs::TraceContextScope trace_scope(trace_ctx);
    LORE_OBS_SPAN(chunk_span, "campaign.chunk");
    const bool events = obs::kCompiledIn && obs::event_stream_enabled();
    // Re-evaluated per chunk so a controller trip stops pruning on every
    // chunk scored after it.
    const bool prune_chunk =
        pruning && (hooks.controller == nullptr || hooks.controller->enabled());
    Arena& arena = Arena::for_thread();
    ArenaScope epoch(arena);
    ChunkTally tally;
    std::size_t first = std::numeric_limits<std::size_t>::max();
    plan.for_each_run(p0, p1, [&](std::size_t begin, std::size_t end) {
      first = std::min(first, begin);
      const auto seeds = arena.alloc<std::uint64_t>(end - begin);
      kernels::fill_trial_seeds(seeds, spec.base_seed, begin);
      std::span<std::uint8_t> benign;
      if (prune_chunk) {
        benign = arena.alloc<std::uint8_t>(end - begin, /*zeroed=*/true);
        hooks.predict(begin, end, std::span<const std::uint64_t>(seeds), benign);
      }
      for (std::size_t i = begin; i < end; ++i) {
        const std::size_t slot = i - base;
        if (budget && Clock::now() - state.start() >= spec.overall_budget)
          return;  // the rest of the run stays kSkipped; a resume picks it up
        const bool predicted_benign = prune_chunk && benign[i - begin] != 0;
        const bool audited =
            predicted_benign && prune_audit_selected(audit_seed, i, audit_fraction);
        if (predicted_benign && !audited) {
          out.status[slot] = TrialStatus::kPruned;
          ++tally.pruned;
          continue;
        }
        std::exception_ptr error;
        for (unsigned attempt = 0; attempt <= spec.max_retries; ++attempt) {
          if (attempt > 0) state.retry(i, attempt);
          const CancelToken cancel =
              deadline ? CancelToken::with_deadline(Clock::now() + spec.trial_deadline)
                       : CancelToken();
          const double t0 = events ? obs::TraceRecorder::now_us() : 0.0;
          try {
            // A fresh stream per attempt: a retried trial replays the exact
            // stream of its first attempt.
            Rng rng(seeds[i - begin]);
            out.records[slot] = trial(i, rng, cancel);
            out.status[slot] = TrialStatus::kOk;
            if (events)
              LORE_OBS_EVENT(obs::EventKind::kTrialCompleted, i,
                             obs::TraceRecorder::now_us() - t0);
            break;
          } catch (const TrialTimeout&) {
            error = std::current_exception();
            out.status[slot] = TrialStatus::kTimeout;
            state.timed_out(i, attempt);
          } catch (const std::exception& e) {
            error = std::current_exception();
            out.status[slot] = TrialStatus::kFailed;
            state.failed(i, attempt, e.what());
          } catch (...) {
            error = std::current_exception();
            out.status[slot] = TrialStatus::kFailed;
            state.failed(i, attempt, "unknown trial exception");
          }
        }
        if (out.status[slot] != TrialStatus::kOk) {
          if (stages.shard) std::rethrow_exception(error);
          continue;  // the slot was never assigned: still value-initialized
        }
        ++tally.ok;
        if (state.checkpointing()) state.publish(slot);
        if (audited) {
          const bool truth = hooks.is_benign ? hooks.is_benign(out.records[slot]) : true;
          ++tally.audits;
          if (!truth) ++tally.false_benign;
          if (hooks.controller) hooks.controller->record_audit(truth);
        }
        if (hooks.on_executed)
          hooks.on_executed(i, out.records[slot], predicted_benign, audited);
      }
    });
    if (state.end_chunk(first, tally, hooks.controller)) {
      std::unique_lock lock(state.snapshot_mutex(), std::try_to_lock);
      if (lock) snapshot();
    }
  });
}

}  // namespace campaign_detail

/// Run a campaign under `spec`. `trial(i, rng, cancel)` computes the record
/// of trial `i` from an rng seeded with `trial_seed(spec.base_seed, i)` — the
/// identical contract to `parallel_for_trials`, so results are bit-identical
/// for every thread count and chunk size, across interrupt/resume, and
/// across retries. Each spec feature is a stage of the one loop (see the
/// top of this file): resume runs only the missing indices, the first
/// `max_trials_per_run` of them when capped; no trial starts once
/// `overall_budget` has elapsed; checkpoint snapshots encode the published
/// kOk records through `Codec` at chunk boundaries (chunks never exceed
/// `checkpoint_every`) and once at the end.
///
/// With `hooks.predict` set, each contiguous run of a chunk is scored before
/// execution and predicted-benign trials are skipped as kPruned
/// (value-initialized record), except a seeded audit fraction that executes
/// anyway. Which trials are pruned is a pure function of (predictions,
/// audit_seed), so `audit_fraction = 1.0` reproduces prune=off outcomes at
/// any thread count; a tripped PruneController stops pruning on chunks
/// scored after the trip. `chunk` pins the chunk size (0 = derived from the
/// trial count, thread count and checkpoint interval) — the hook the
/// chunk-invariance tests use.
template <typename Record, typename Codec = PodCodec<Record>, typename TrialFn>
CampaignResult<Record> run_campaign(const CampaignSpec& spec, TrialFn&& trial,
                                    const PruneHooks<Record>& hooks = {},
                                    std::size_t chunk = 0) {
  const bool checkpointing = !spec.checkpoint_path.empty() && spec.checkpoint_every > 0;
  CampaignResult<Record> out;
  std::size_t resumed = 0;
  if (auto ck = checkpointing ? load_checkpoint(spec.checkpoint_path, spec) : std::nullopt) {
    out = result_from_checkpoint<Record, Codec>(spec, *ck);
    resumed = out.report.completed;
    out.report = CampaignReport{};
    out.report.loaded_checkpoint = true;
  } else {
    out.records.resize(spec.trials);
    out.status.assign(spec.trials, TrialStatus::kSkipped);
  }
  out.report.trials = spec.trials;
  out.report.resumed = resumed;

  campaign_detail::RunState state(spec, static_cast<bool>(hooks.predict), checkpointing);
  for (std::size_t i = 0; checkpointing && i < spec.trials; ++i)
    if (out.status[i] == TrialStatus::kOk) state.publish(i);
  state.resumed(resumed);

  // Snapshot every published slot. Runs alongside chunk execution:
  // unpublished slots are simply absent from this snapshot and appear in the
  // next one.
  const auto snapshot = [&] {
    CampaignCheckpoint ck;
    ck.identity = spec.identity_hash();
    ck.build_tag = checkpoint_build_tag();
    ck.trials = spec.trials;
    for (std::size_t i = 0; i < spec.trials; ++i) {
      if (!state.published(i)) continue;
      ByteWriter w;
      Codec::encode(w, out.records[i]);
      ck.entries.push_back({static_cast<std::uint64_t>(i), std::move(w).take()});
    }
    state.write_snapshot(ck);
  };
  campaign_detail::execute(spec, {.chunk = chunk},
                           campaign_detail::TrialPlan::missing(out.status,
                                                               spec.max_trials_per_run),
                           0, trial, hooks, out, state, snapshot);
  // Final snapshot so an interrupt between intervals loses nothing, and a
  // finished campaign's checkpoint replays instantly on the next invocation.
  if (checkpointing && state.fresh()) {
    std::lock_guard lock(state.snapshot_mutex());
    snapshot();
  }
  state.finish(out.report, out.status, hooks.controller);
  return out;
}

/// Worker half of the fabric hand-off (DESIGN.md §12): run trials
/// [range.begin, range.end) of `spec` on the same executor as `run_campaign`
/// — each seeded `trial_seed(spec.base_seed, global_index)` — and return
/// their records encoded through `Codec` as a LORECKP1-ready checkpoint
/// (identity + build tag filled in, one entry per trial in index order).
/// A shard does no checkpoint I/O and ignores the budget and per-run cap;
/// failed trials retry up to spec.max_retries times, and a trial that still
/// fails propagates its exception, failing the shard as a unit (the
/// coordinator re-dispatches it).
template <typename Record, typename Codec = PodCodec<Record>, typename TrialFn>
CampaignCheckpoint run_campaign_shard(const CampaignSpec& spec, TrialRange range,
                                      TrialFn&& trial) {
  CampaignCheckpoint ck;
  ck.identity = spec.identity_hash();
  ck.build_tag = checkpoint_build_tag();
  ck.trials = spec.trials;
  if (range.end > spec.trials) range.end = spec.trials;
  if (range.begin >= range.end) return ck;

  CampaignResult<Record> out;
  out.records.resize(range.size());
  out.status.assign(range.size(), TrialStatus::kSkipped);
  campaign_detail::RunState state(spec, /*pruning=*/false, /*checkpointing=*/false);
  campaign_detail::execute(spec, {.shard = true}, campaign_detail::TrialPlan(range),
                           range.begin, trial, PruneHooks<Record>{}, out, state, [] {});
  ck.entries.reserve(range.size());
  for (std::size_t j = 0; j < range.size(); ++j) {
    ByteWriter w;
    Codec::encode(w, out.records[j]);
    ck.entries.push_back({static_cast<std::uint64_t>(range.begin + j), std::move(w).take()});
  }
  return ck;
}

/// Every campaign runs on the chunked executor; kept for callers that report
/// the share of campaigns on it.
inline bool campaign_uses_batch(const CampaignSpec&) { return true; }

}  // namespace lore
