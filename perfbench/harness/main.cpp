// lore_perfbench — the measuring half of the repository benchmark.
//
//   lore_perfbench <workload> --seed N --seconds S --trace 0|1 --workdir DIR
//
// Sets the workload up, then runs rounds of its fixed job until S seconds
// have passed and at least a fixed number of untraced rounds have run. More
// set-ups are timed, before the rounds or between them or between a round's
// parts. With --trace 1 every other round records obs::Spans, which are
// kept in memory and written to DIR/trace.json when the run ends. Prints one
// JSON object of raw samples on stdout; perfbench/run.py derives the metrics
// from it.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "harness.hpp"
#include "src/obs/span.hpp"

namespace {

using namespace perfbench;

/// Per workload: how many set-ups to time, and how many untraced rounds the
/// best-part estimators use. Both counts are fixed, so a faster or slower
/// build takes its minima over the same number of samples. The round counts
/// fit in about 30 s at the time of writing; a run measures at least that
/// many untraced rounds even when they take longer. A traced run, whose
/// rounds alternate, uses half as many so that it takes about as long.
/// Short set-ups are due at even intervals over the run's seconds: a host's
/// speed shifts over seconds, and a burst of them would land in one phase.
struct Plan {
  const char* name;
  std::unique_ptr<Workload> (*factory)(const Options&);
  int setups;
  int best_of;
};

/// A set-up at least this long spans part of a phase by itself. Such
/// set-ups run back to back before the rounds, each replacing the last, so
/// that no extra one sits in memory beside the kept workload and raises the
/// peak.
constexpr double kLongSetupS = 0.1;

constexpr Plan kPlans[] = {
    {"fi_plain", make_fi_plain, 300, 80},
    {"fi_resilient", make_fi_resilient, 9, 16},
    {"crosslayer", make_crosslayer, 300, 8},
};

int usage() {
  std::fprintf(stderr,
               "usage: lore_perfbench fi_plain|fi_resilient|crosslayer "
               "--seed N --seconds S --trace 0|1 --workdir DIR\n");
  return 2;
}

/// Spans of the traced rounds as [name, tid, start_us, dur_us, id, parent].
Json trace_events_json() {
  Json arr = Json::array();
  for (const auto& e : lore::obs::TraceRecorder::global().events()) {
    Json row = Json::array();
    row.push_back(e.name);
    row.push_back(static_cast<std::int64_t>(e.pid) * 1000000 + e.tid);
    row.push_back(e.start_us);
    row.push_back(e.dur_us);
    row.push_back(lore::obs::span_id_hex(e.span));
    row.push_back(lore::obs::span_id_hex(e.parent));
    arr.push_back(std::move(row));
  }
  return arr;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string name = argv[1];
  Options opt;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--seed") opt.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") seconds = std::atof(value);
    else if (flag == "--trace") trace = std::atoi(value) != 0;
    else if (flag == "--workdir") opt.workdir = value;
    else return usage();
  }
  const Plan* plan = nullptr;
  for (const Plan& p : kPlans)
    if (name == p.name) plan = &p;
  if (!plan || opt.workdir.empty() || seconds <= 0.0) return usage();

  auto& recorder = lore::obs::TraceRecorder::global();
  recorder.set_enabled(false);

  Json out = Json::object();
  out["workload"] = name;
  out["seed"] = std::to_string(opt.seed);
  out["host"] = host_fingerprint();

  // The last long set-up, or the first short one, builds the workload the
  // rounds run. Other short ones are built and dropped when due, never
  // inside a traced round.
  Json setup = Json::array();
  const auto timed_setup = [&] {
    const double t0 = now_s();
    std::unique_ptr<Workload> w = plan->factory(opt);
    setup.push_back(now_s() - t0);
    return w;
  };
  std::unique_ptr<Workload> workload = timed_setup();
  if (setup.at(0).as_double() >= kLongSetupS) {
    while (static_cast<int>(setup.size()) < plan->setups) {
      workload.reset();
      workload = timed_setup();
    }
  }
  double start = 0.0;
  const auto due_setups = [&] {
    if (recorder.recording()) return 0.0;
    const double t0 = now_s();
    const double step = seconds / plan->setups;
    while (static_cast<int>(setup.size()) < plan->setups &&
           t0 - start >= step * static_cast<double>(setup.size()))
      timed_setup();
    return now_s() - t0;
  };
  workload->between_parts = due_setups;
  const int best_of = trace ? (plan->best_of + 1) / 2 : plan->best_of;
  out["best_of"] = best_of;

  // Untraced and traced rounds alternate in a traced run, so both see the
  // same host conditions; obs.trace_overhead compares them.
  Checks checks;
  Json rounds = Json::array();
  int untraced = 0;
  start = now_s();
  for (int n = 0;; ++n) {
    const bool traced = trace && n % 2 == 1;
    recorder.set_enabled(traced);
    Json sample = workload->round(checks);
    recorder.set_enabled(false);
    sample["traced"] = traced;
    rounds.push_back(std::move(sample));
    if (!traced) ++untraced;
    due_setups();
    if (untraced >= best_of && now_s() - start >= seconds) break;
  }
  out["measure_s"] = now_s() - start;
  while (static_cast<int>(setup.size()) < plan->setups) timed_setup();
  out["setup_s"] = std::move(setup);
  out["rounds"] = std::move(rounds);
  out["summary"] = workload->summary(checks);
  out["peak_rss_mb"] = self_peak_rss_mb();

  if (trace) {
    const double t0 = now_s();
    const std::string path = opt.workdir + "/trace.json";
    std::ofstream file(path);
    file << trace_events_json().dump() << '\n';
    checks.expect(static_cast<bool>(file), "trace.written", path);
    out["trace_file"] = path;
    out["trace_export_s"] = now_s() - t0;
  }
  out["checks"] = checks.to_json();
  out["correct"] = checks.ok();
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
