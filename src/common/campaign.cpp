#include "src/common/campaign.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "src/obs/obs.hpp"

#ifndef LORE_BUILD_TAG
#define LORE_BUILD_TAG "unknown"
#endif

namespace lore {
namespace {

constexpr char kMagic[8] = {'L', 'O', 'R', 'E', 'C', 'K', 'P', '1'};
constexpr std::uint32_t kVersion = 1;

/// CRC-32 (IEEE 802.3, reflected), table built on first use.
std::uint32_t crc32(const char* data, std::size_t n) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i)
    crc = (crc >> 8) ^ table[(crc ^ static_cast<std::uint8_t>(data[i])) & 0xffu];
  return crc ^ 0xffffffffu;
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void warn_checkpoint(std::string_view source, const char* reason) {
  std::fprintf(stderr, "lore: checkpoint %.*s: %s; ignored\n",
               static_cast<int>(source.size()), source.data(), reason);
}

}  // namespace

const char* trial_status_name(TrialStatus s) {
  switch (s) {
    case TrialStatus::kOk: return "ok";
    case TrialStatus::kTimeout: return "timeout";
    case TrialStatus::kFailed: return "failed";
    case TrialStatus::kSkipped: return "skipped";
    case TrialStatus::kPruned: return "pruned";
  }
  return "?";
}

double resolve_prune_audit(double requested) {
  if (requested >= 0.0) return requested > 1.0 ? 1.0 : requested;
  static const double env_audit = [] {
    const char* env = std::getenv("LORE_PRUNE_AUDIT");
    if (!env || !*env) return -1.0;
    const double v = std::atof(env);
    return v >= 0.0 ? (v > 1.0 ? 1.0 : v) : -1.0;
  }();
  return env_audit >= 0.0 ? env_audit : 0.05;
}

void PruneController::record_audit(bool was_benign) {
  const auto a = audits_.fetch_add(1, std::memory_order_relaxed) + 1;
  const auto fb = false_benign_.fetch_add(was_benign ? 0 : 1, std::memory_order_relaxed) +
                  (was_benign ? 0 : 1);
  if (was_benign || a < cfg_.min_audits) return;
  const double rate = static_cast<double>(fb) / static_cast<double>(a);
  if (rate > cfg_.false_benign_alert) disable("campaign.prune.false_benign");
}

void PruneController::disable(const char* reason) {
  if (tripped_.exchange(true, std::memory_order_relaxed)) return;  // first trip only
  if (obs::kCompiledIn && obs::enabled()) {
    obs::MetricsRegistry::global().counter("campaign.prune_trips").add(1);
    if (obs::EventRing::global().enabled())
      obs::emit_event(obs::EventKind::kAlert, audits(), false_benign_rate(), reason);
  }
}

std::uint64_t CampaignSpec::identity_hash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  const std::uint64_t t = trials;
  h = fnv1a(h, &t, sizeof t);
  h = fnv1a(h, &base_seed, sizeof base_seed);
  h = fnv1a(h, domain.data(), domain.size());
  return h;
}

std::string checkpoint_build_tag() { return LORE_BUILD_TAG; }

std::string default_checkpoint_path(std::string_view campaign_name) {
  const char* dir = std::getenv("LORE_CHECKPOINT_DIR");
  if (!dir || !*dir) return {};
  std::string path(dir);
  path += '/';
  path += campaign_name;
  path += ".ckpt";
  return path;
}

std::string encode_checkpoint(const CampaignCheckpoint& ck) {
  ByteWriter w;
  w.put_bytes(kMagic, sizeof kMagic);
  w.put_u32(kVersion);
  w.put_u64(ck.identity);
  w.put_str(ck.build_tag);
  w.put_u64(ck.trials);
  w.put_u64(ck.entries.size());
  for (const auto& e : ck.entries) {
    w.put_u64(e.trial);
    w.put_str(e.payload);
  }
  std::string bytes = std::move(w).take();
  const std::uint32_t crc = crc32(bytes.data(), bytes.size());
  for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<char>(crc >> (8 * i)));
  return bytes;
}

std::optional<CampaignCheckpoint> decode_checkpoint(std::string_view bytes,
                                                    const CampaignSpec& spec,
                                                    std::string_view source) {
  if (bytes.size() < sizeof kMagic + 4) {
    warn_checkpoint(source, "payload too short");
    return std::nullopt;
  }
  const std::size_t body_len = bytes.size() - 4;
  std::uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i)
    stored_crc |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[body_len + i]))
                  << (8 * i);
  if (crc32(bytes.data(), body_len) != stored_crc) {
    warn_checkpoint(source, "CRC mismatch (corrupted or torn payload)");
    return std::nullopt;
  }

  try {
    ByteReader r(bytes.substr(0, body_len));
    char magic[sizeof kMagic];
    r.get_bytes(magic, sizeof magic);
    if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
      warn_checkpoint(source, "bad magic");
      return std::nullopt;
    }
    if (r.get_u32() != kVersion) {
      warn_checkpoint(source, "unsupported version");
      return std::nullopt;
    }
    CampaignCheckpoint ck;
    ck.identity = r.get_u64();
    ck.build_tag = r.get_str();
    ck.trials = r.get_u64();
    // Mis-routed payloads (a shard for a different campaign, a checkpoint
    // from another workload) are an expected fabric failure mode: name both
    // sides of every mismatch so the operator can tell *which* campaign the
    // stray payload belonged to.
    if (ck.identity != spec.identity_hash()) {
      char msg[192];
      std::snprintf(msg, sizeof msg,
                    "identity mismatch (expected %016llx, found %016llx, "
                    "payload build tag \"%s\")",
                    static_cast<unsigned long long>(spec.identity_hash()),
                    static_cast<unsigned long long>(ck.identity),
                    ck.build_tag.c_str());
      warn_checkpoint(source, msg);
      return std::nullopt;
    }
    if (ck.trials != spec.trials) {
      char msg[128];
      std::snprintf(msg, sizeof msg, "trial count mismatch (expected %llu, found %llu)",
                    static_cast<unsigned long long>(spec.trials),
                    static_cast<unsigned long long>(ck.trials));
      warn_checkpoint(source, msg);
      return std::nullopt;
    }
    if (ck.build_tag != checkpoint_build_tag()) {
      char msg[192];
      std::snprintf(msg, sizeof msg, "stale build tag (expected \"%s\", found \"%s\")",
                    checkpoint_build_tag().c_str(), ck.build_tag.c_str());
      warn_checkpoint(source, msg);
      return std::nullopt;
    }
    const std::uint64_t count = r.get_u64();
    ck.entries.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      CheckpointEntry e;
      e.trial = r.get_u64();
      if (e.trial >= ck.trials) {
        warn_checkpoint(source, "trial index out of range");
        return std::nullopt;
      }
      e.payload = r.get_str();
      ck.entries.push_back(std::move(e));
    }
    return ck;
  } catch (const CheckpointError&) {
    warn_checkpoint(source, "truncated");
    return std::nullopt;
  }
}

bool write_checkpoint(const std::string& path, const CampaignCheckpoint& ck) {
  const std::string bytes = encode_checkpoint(ck);

  // Write to a sibling temp file and rename into place: a SIGKILL mid-write
  // leaves either the previous checkpoint or a stray .tmp — never a torn file
  // at `path`.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<CampaignCheckpoint> load_checkpoint(const std::string& path,
                                                  const CampaignSpec& spec) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;  // no checkpoint yet: silent fresh start
  std::string bytes;
  char buf[1 << 16];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) bytes.append(buf, n);
  std::fclose(f);
  return decode_checkpoint(bytes, spec, path);
}

std::vector<TrialRange> shard_trial_ranges(std::size_t trials, std::size_t shard_count) {
  std::vector<TrialRange> out;
  if (trials == 0 || shard_count == 0) return out;
  if (shard_count > trials) shard_count = trials;
  out.reserve(shard_count);
  const std::size_t base = trials / shard_count;
  const std::size_t extra = trials % shard_count;
  std::size_t begin = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::size_t len = base + (s < extra ? 1 : 0);
    out.push_back({begin, begin + len});
    begin += len;
  }
  return out;
}

std::size_t merge_checkpoint_entries(CampaignCheckpoint& into,
                                     const CampaignCheckpoint& from,
                                     std::vector<std::uint8_t>& seen) {
  seen.resize(static_cast<std::size_t>(into.trials), 0);
  std::size_t accepted = 0;
  for (const auto& e : from.entries) {
    const auto i = static_cast<std::size_t>(e.trial);
    if (i >= into.trials || seen[i]) continue;
    seen[i] = 1;
    into.entries.push_back(e);
    ++accepted;
  }
  return accepted;
}

std::size_t merge_checkpoint_entries(CampaignCheckpoint& into,
                                     const CampaignCheckpoint& from) {
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(into.trials), 0);
  for (const auto& e : into.entries)
    if (e.trial < into.trials) seen[static_cast<std::size_t>(e.trial)] = 1;
  return merge_checkpoint_entries(into, from, seen);
}

namespace campaign_detail {

std::size_t derive_chunk(std::size_t trials, unsigned threads,
                         std::size_t checkpoint_every) {
  constexpr std::size_t kMaxChunk = 256;
  const std::size_t team = resolve_threads(threads, trials);
  std::size_t chunk =
      team <= 1 ? kMaxChunk : std::clamp<std::size_t>(trials / (team * 8), 1, kMaxChunk);
  if (checkpoint_every > 0) chunk = std::min(chunk, checkpoint_every);
  return chunk;
}

TrialPlan::TrialPlan(TrialRange range) { add(range.begin, range.end); }

TrialPlan TrialPlan::missing(std::span<const TrialStatus> status, std::size_t cap) {
  TrialPlan plan;
  const std::size_t limit = cap ? cap : status.size();
  for (std::size_t i = 0; i < status.size() && plan.size_ < limit;) {
    if (status[i] == TrialStatus::kOk) {
      ++i;
      continue;
    }
    std::size_t end = i + 1;
    while (end < status.size() && status[end] != TrialStatus::kOk &&
           plan.size_ + (end - i) < limit)
      ++end;
    plan.add(i, end);
    i = end;
  }
  return plan;
}

void TrialPlan::add(std::size_t begin, std::size_t end) {
  if (begin >= end) return;
  runs_.push_back({begin, end});
  starts_.push_back(size_);
  size_ += end - begin;
}

RunState::RunState(const CampaignSpec& spec, bool pruning, bool checkpointing)
    : spec_(spec), pruning_(pruning) {
  if (checkpointing) published_.reset(new std::atomic<std::uint8_t>[spec.trials]());
  if (obs::kCompiledIn && obs::enabled()) {
    auto& registry = obs::MetricsRegistry::global();
    registry_ = &registry;
    completed_counter_ = &registry.counter("campaign.trials_completed");
    progress_gauge_ = &registry.gauge("campaign.progress");
    if (pruning) {
      pruned_counter_ = &registry.counter("campaign.trials_pruned");
      audit_counter_ = &registry.counter("campaign.prune_audits");
      false_benign_counter_ = &registry.counter("campaign.prune_false_benign");
    }
  }
}

void RunState::retry(std::size_t index, unsigned attempt) {
  retries_.fetch_add(1, std::memory_order_relaxed);
  if (registry_) registry_->counter("campaign.retries").add(1);
  LORE_OBS_EVENT(obs::EventKind::kTrialRetry, index, attempt);
  std::this_thread::sleep_for(spec_.retry_backoff * (1u << (attempt - 1)));
}

void RunState::timed_out(std::size_t index, unsigned attempt) {
  timeout_attempts_.fetch_add(1, std::memory_order_relaxed);
  if (registry_) registry_->counter("campaign.timeouts").add(1);
  LORE_OBS_EVENT(obs::EventKind::kTrialTimeout, index, attempt);
}

void RunState::failed(std::size_t index, unsigned attempt, const char* what) {
  suppressed_.fetch_add(1, std::memory_order_relaxed);
  if (registry_) registry_->counter("campaign.trial_failures").add(1);
  LORE_OBS_EVENT(obs::EventKind::kTrialFailed, index, attempt);
  std::lock_guard lock(error_mu_);
  if (first_error_.empty()) first_error_ = what;
}

void RunState::resumed(std::size_t count) {
  done_.store(count, std::memory_order_relaxed);
  if (!registry_) return;
  registry_->counter("campaign.trials_resumed").add(count);
  progress_gauge_->set(spec_.trials ? static_cast<double>(count) /
                                          static_cast<double>(spec_.trials)
                                    : 1.0);
}

bool RunState::end_chunk(std::size_t begin, const ChunkTally& t,
                         PruneController* controller) {
  if (t.pruned) {
    if (controller) controller->record_pruned(t.pruned);
    if (pruned_counter_) pruned_counter_->add(t.pruned);
    // Prune decisions as structured events (not just a counter): a = trials
    // pruned in this chunk, value = first trial index of the chunk — enough
    // for intervals, traces, and the post-mortem toolkit to reconstruct
    // which ranges were skipped and under which span.
    LORE_OBS_EVENT(obs::EventKind::kTrialsPruned, t.pruned, static_cast<double>(begin));
  }
  if (t.audits) {
    audits_.fetch_add(t.audits, std::memory_order_relaxed);
    if (audit_counter_) audit_counter_->add(t.audits);
  }
  if (t.false_benign) {
    false_benign_.fetch_add(t.false_benign, std::memory_order_relaxed);
    if (false_benign_counter_) false_benign_counter_->add(t.false_benign);
  }
  if (t.ok == 0) return false;
  fresh_.fetch_add(t.ok, std::memory_order_relaxed);
  const auto done = done_.fetch_add(t.ok, std::memory_order_relaxed) + t.ok;
  if (registry_) {
    completed_counter_->add(t.ok);
    progress_gauge_->set(static_cast<double>(done) / static_cast<double>(spec_.trials));
  }
  if (!checkpointing() ||
      since_snapshot_.fetch_add(t.ok, std::memory_order_relaxed) + t.ok <
          spec_.checkpoint_every)
    return false;
  since_snapshot_.store(0, std::memory_order_relaxed);
  return true;
}

void RunState::write_snapshot(const CampaignCheckpoint& ck) {
  const auto w0 = Clock::now();
  if (!write_checkpoint(spec_.checkpoint_path, ck)) return;
  checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  const double us = std::chrono::duration<double, std::micro>(Clock::now() - w0).count();
  LORE_OBS_EVENT(obs::EventKind::kCheckpointWritten, ck.entries.size(), us);
  if (!registry_) return;
  registry_->histogram("campaign.checkpoint_write_us").observe(us);
  registry_->counter("campaign.checkpoints").add(1);
  // ETA from this run's own throughput (resumed trials cost nothing).
  const auto fresh = fresh_.load(std::memory_order_relaxed);
  const auto done = done_.load(std::memory_order_relaxed);
  if (fresh > 0 && done < spec_.trials) {
    const double elapsed_s = std::chrono::duration<double>(Clock::now() - start_).count();
    registry_->gauge("campaign.eta_s")
        .set(elapsed_s / static_cast<double>(fresh) *
             static_cast<double>(spec_.trials - done));
  }
}

void RunState::finish(CampaignReport& rep, std::span<const TrialStatus> status,
                      const PruneController* controller) {
  const auto bytes = std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(status.data()), status.size());
  const auto count = [&](TrialStatus s) {
    return kernels::count_equal_u8(bytes, static_cast<std::uint8_t>(s));
  };
  rep.completed = count(TrialStatus::kOk);
  rep.timeouts = count(TrialStatus::kTimeout);
  rep.failed = count(TrialStatus::kFailed);
  rep.skipped = count(TrialStatus::kSkipped);
  rep.pruned = count(TrialStatus::kPruned);
  rep.prune_audits = audits_.load(std::memory_order_relaxed);
  rep.prune_false_benign = false_benign_.load(std::memory_order_relaxed);
  rep.prune_disabled = pruning_ && controller != nullptr && controller->tripped();
  rep.retries = retries_.load(std::memory_order_relaxed);
  rep.timeout_attempts = timeout_attempts_.load(std::memory_order_relaxed);
  rep.suppressed_exceptions = suppressed_.load(std::memory_order_relaxed);
  rep.checkpoints_written = checkpoints_written_.load(std::memory_order_relaxed);
  rep.first_error = std::move(first_error_);
  if (progress_gauge_)
    progress_gauge_->set(spec_.trials ? static_cast<double>(rep.completed) /
                                            static_cast<double>(spec_.trials)
                                      : 1.0);
}

}  // namespace campaign_detail
}  // namespace lore
