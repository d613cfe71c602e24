#include "src/scenario/spec.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

namespace lore::scenario {

namespace {

using obs::Json;

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw SpecError(path + ": " + what);
}

const Json* find_member(const Json& j, const char* key) {
  return j.type() == Json::Type::kObject ? j.find(key) : nullptr;
}

void expect_object(const Json& j, const std::string& path) {
  if (j.type() != Json::Type::kObject) fail(path, "expected object");
}

double get_double(const Json& j, const char* key, double def, const std::string& path) {
  const Json* m = find_member(j, key);
  if (!m) return def;
  if (!m->is_number()) fail(path + "." + key, "expected number");
  return m->as_double();
}

std::int64_t get_integer(const Json& j, const char* key, std::int64_t def,
                         const std::string& path) {
  const Json* m = find_member(j, key);
  if (!m) return def;
  if (m->type() != Json::Type::kInt) fail(path + "." + key, "expected integer");
  return m->as_int();
}

std::uint64_t get_u64(const Json& j, const char* key, std::uint64_t def,
                      const std::string& path) {
  const std::int64_t v = get_integer(j, key, static_cast<std::int64_t>(def), path);
  if (v < 0) fail(path + "." + key, "expected non-negative integer");
  return static_cast<std::uint64_t>(v);
}

// Seeds use all 64 bits. The encoder writes them as their two's-complement
// int64 (JSON integers are signed here), so a negative value is a seed
// >= 2^63 and casts back losslessly.
std::uint64_t get_seed(const Json& j, const char* key, std::uint64_t def,
                       const std::string& path) {
  return static_cast<std::uint64_t>(
      get_integer(j, key, static_cast<std::int64_t>(def), path));
}

std::size_t get_size(const Json& j, const char* key, std::size_t def,
                     const std::string& path) {
  return static_cast<std::size_t>(get_u64(j, key, def, path));
}

bool get_bool(const Json& j, const char* key, bool def, const std::string& path) {
  const Json* m = find_member(j, key);
  if (!m) return def;
  if (m->type() != Json::Type::kBool) fail(path + "." + key, "expected boolean");
  return m->as_bool();
}

std::string get_string(const Json& j, const char* key, const std::string& def,
                       const std::string& path) {
  const Json* m = find_member(j, key);
  if (!m) return def;
  if (m->type() != Json::Type::kString) fail(path + "." + key, "expected string");
  return m->as_string();
}

std::vector<double> get_double_array(const Json& j, const char* key,
                                     std::vector<double> def, const std::string& path) {
  const Json* m = find_member(j, key);
  if (!m) return def;
  if (m->type() != Json::Type::kArray) fail(path + "." + key, "expected array of numbers");
  std::vector<double> out;
  out.reserve(m->size());
  for (std::size_t i = 0; i < m->size(); ++i) {
    const Json& e = m->at(i);
    if (!e.is_number())
      fail(path + "." + key + "[" + std::to_string(i) + "]", "expected number");
    out.push_back(e.as_double());
  }
  return out;
}

void check_token(const std::string& value, std::initializer_list<const char*> allowed,
                 const std::string& path) {
  for (const char* t : allowed)
    if (value == t) return;
  std::string msg = "unknown token '" + value + "' (expected one of:";
  for (const char* t : allowed) msg += std::string(" ") + t;
  fail(path, msg + ")");
}

// ---- per-struct decoders ---------------------------------------------------

CampaignKnobs decode_campaign(const Json& j, const std::string& path) {
  expect_object(j, path);
  CampaignKnobs k;
  k.threads = static_cast<unsigned>(get_u64(j, "threads", k.threads, path));
  if (find_member(j, "base_seed")) k.base_seed = get_seed(j, "base_seed", 0, path);
  k.checkpoint = get_bool(j, "checkpoint", k.checkpoint, path);
  k.trial_deadline_ms = get_double(j, "trial_deadline_ms", k.trial_deadline_ms, path);
  k.overall_budget_ms = get_double(j, "overall_budget_ms", k.overall_budget_ms, path);
  k.max_retries = static_cast<unsigned>(get_u64(j, "max_retries", k.max_retries, path));
  return k;
}

WorkloadSpec decode_workload(const Json& j, const std::string& path) {
  expect_object(j, path);
  WorkloadSpec w;
  w.name = get_string(j, "name", w.name, path);
  check_token(w.name,
              {"dot_product", "matmul", "bubble_sort", "checksum", "fibonacci",
               "find_max", "random_program"},
              path + ".name");
  w.scale = get_size(j, "scale", w.scale, path);
  w.wseed = get_seed(j, "wseed", w.wseed, path);
  return w;
}

FaultModelSpec decode_fault(const Json& j, const std::string& path) {
  expect_object(j, path);
  FaultModelSpec f;
  f.layer = get_string(j, "layer", f.layer, path);
  check_token(f.layer, {"arch.fault", "arch.pipeline"}, path + ".layer");
  f.target = get_string(j, "target", f.target, path);
  check_token(f.target, {"register", "memory", "instruction"}, path + ".target");
  f.workload = get_size(j, "workload", f.workload, path);
  f.trials = get_size(j, "trials", f.trials, path);
  return f;
}

ThermalPhase decode_thermal(const Json& j, const std::string& path) {
  expect_object(j, path);
  ThermalPhase p;
  p.duration_ms = get_double(j, "duration_ms", p.duration_ms, path);
  p.ambient_k = get_double(j, "ambient_k", p.ambient_k, path);
  return p;
}

DeviceSpec decode_device(const Json& j, const std::string& path) {
  expect_object(j, path);
  DeviceSpec d;
  d.years = get_double(j, "years", d.years, path);
  d.vdd = get_double(j, "vdd", d.vdd, path);
  d.duty_cycle = get_double(j, "duty_cycle", d.duty_cycle, path);
  d.toggle_rate_ghz = get_double(j, "toggle_rate_ghz", d.toggle_rate_ghz, path);
  d.self_heat_rise_k = get_double(j, "self_heat_rise_k", d.self_heat_rise_k, path);
  d.vth0 = get_double(j, "vth0", d.vth0, path);
  d.alpha = get_double(j, "alpha", d.alpha, path);
  d.nominal_fmax_ghz = get_double(j, "nominal_fmax_ghz", d.nominal_fmax_ghz, path);
  d.margin = get_double(j, "margin", d.margin, path);
  return d;
}

TasksetSpec decode_taskset(const Json& j, const std::string& path) {
  expect_object(j, path);
  TasksetSpec t;
  t.num_tasks = get_size(j, "num_tasks", t.num_tasks, path);
  t.utilization = get_double(j, "utilization", t.utilization, path);
  t.min_period_ms = get_double(j, "min_period_ms", t.min_period_ms, path);
  t.max_period_ms = get_double(j, "max_period_ms", t.max_period_ms, path);
  t.hi_fraction = get_double(j, "hi_fraction", t.hi_fraction, path);
  t.lo_budget_fraction = get_double(j, "lo_budget_fraction", t.lo_budget_fraction, path);
  t.seed = get_seed(j, "seed", t.seed, path);
  return t;
}

OsSpec decode_os(const Json& j, const std::string& path) {
  expect_object(j, path);
  OsSpec o;
  o.governor = get_string(j, "governor", o.governor, path);
  check_token(o.governor, {"static", "ondemand", "dpm", "rl"}, path + ".governor");
  o.vf_index = get_size(j, "vf_index", o.vf_index, path);
  o.big_cores = get_size(j, "big_cores", o.big_cores, path);
  o.little_cores = get_size(j, "little_cores", o.little_cores, path);
  o.mapping = get_string(j, "mapping", o.mapping, path);
  check_token(o.mapping, {"worst_fit", "performance", "thermal"}, path + ".mapping");
  o.duration_ms = get_double(j, "duration_ms", o.duration_ms, path);
  o.tick_ms = get_double(j, "tick_ms", o.tick_ms, path);
  o.control_period_ms = get_double(j, "control_period_ms", o.control_period_ms, path);
  o.sim_seed = get_seed(j, "sim_seed", o.sim_seed, path);
  o.rl_episodes = get_size(j, "rl_episodes", o.rl_episodes, path);
  if (const Json* t = find_member(j, "tasks")) o.tasks = decode_taskset(*t, path + ".tasks");
  o.ser_lambda0_per_s = get_double(j, "ser_lambda0_per_s", o.ser_lambda0_per_s, path);
  o.ser_d_exponent = get_double(j, "ser_d_exponent", o.ser_d_exponent, path);
  o.temp_limit_k = get_double(j, "temp_limit_k", o.temp_limit_k, path);
  return o;
}

MixedCritSpec decode_mixed_crit(const Json& j, const std::string& path) {
  expect_object(j, path);
  MixedCritSpec m;
  if (const Json* t = find_member(j, "tasks")) m.tasks = decode_taskset(*t, path + ".tasks");
  if (const Json* f = find_member(j, "force_criticality")) {
    if (f->type() != Json::Type::kArray)
      fail(path + ".force_criticality", "expected array");
    for (std::size_t i = 0; i < f->size(); ++i) {
      const std::string p = path + ".force_criticality[" + std::to_string(i) + "]";
      const Json& e = f->at(i);
      expect_object(e, p);
      CriticalityOverride o;
      o.task = get_size(e, "task", o.task, p);
      o.level = get_string(e, "level", o.level, p);
      check_token(o.level, {"high", "low"}, p + ".level");
      m.force_criticality.push_back(o);
    }
  }
  m.overrun_factors = get_double_array(j, "overrun_factors", m.overrun_factors, path);
  m.duration_ms = get_double(j, "duration_ms", m.duration_ms, path);
  m.tick_ms = get_double(j, "tick_ms", m.tick_ms, path);
  m.sim_seed = get_seed(j, "sim_seed", m.sim_seed, path);
  return m;
}

ReplicaDriftSpec decode_replica(const Json& j, const std::string& path) {
  expect_object(j, path);
  ReplicaDriftSpec r;
  r.seed = get_seed(j, "seed", r.seed, path);
  r.jobs_per_window = get_size(j, "jobs_per_window", r.jobs_per_window, path);
  if (const Json* ph = find_member(j, "phases")) {
    if (ph->type() != Json::Type::kArray) fail(path + ".phases", "expected array");
    for (std::size_t i = 0; i < ph->size(); ++i) {
      const std::string p = path + ".phases[" + std::to_string(i) + "]";
      const Json& e = ph->at(i);
      expect_object(e, p);
      ReplicaPhase phase;
      phase.name = get_string(e, "name", phase.name, p);
      phase.fault_rate = get_double(e, "fault_rate", phase.fault_rate, p);
      phase.windows = get_size(e, "windows", phase.windows, p);
      r.phases.push_back(std::move(phase));
    }
  }
  return r;
}

RollbackSpec decode_rollback(const Json& j, const std::string& path) {
  expect_object(j, path);
  RollbackSpec r;
  if (const Json* s = find_member(j, "schedulers")) {
    if (s->type() != Json::Type::kArray) fail(path + ".schedulers", "expected array");
    r.schedulers.clear();
    for (std::size_t i = 0; i < s->size(); ++i) {
      const std::string p = path + ".schedulers[" + std::to_string(i) + "]";
      const Json& e = s->at(i);
      if (e.type() != Json::Type::kString) fail(p, "expected string");
      check_token(e.as_string(), {"ds", "ds-1.5x", "ds-2x", "wcet", "ds-ml"}, p);
      r.schedulers.push_back(e.as_string());
    }
  }
  r.runs_per_point = get_size(j, "runs_per_point", r.runs_per_point, path);
  if (find_member(j, "base_seed")) r.base_seed = get_seed(j, "base_seed", 0, path);
  r.error_probabilities =
      get_double_array(j, "error_probabilities", r.error_probabilities, path);
  return r;
}

CrossLayerSpec decode_crosslayer(const Json& j, const std::string& path) {
  expect_object(j, path);
  CrossLayerSpec c;
  c.env_seed = get_seed(j, "env_seed", c.env_seed, path);
  c.alpha = get_double(j, "alpha", c.alpha, path);
  c.gamma = get_double(j, "gamma", c.gamma, path);
  c.epsilon = get_double(j, "epsilon", c.epsilon, path);
  c.epsilon_decay = get_double(j, "epsilon_decay", c.epsilon_decay, path);
  c.learner_seed = get_seed(j, "learner_seed", c.learner_seed, path);
  c.episodes = get_size(j, "episodes", c.episodes, path);
  c.steps_per_episode = get_size(j, "steps_per_episode", c.steps_per_episode, path);
  c.eval_episodes = get_size(j, "eval_episodes", c.eval_episodes, path);
  c.fixed_policy_baselines =
      get_bool(j, "fixed_policy_baselines", c.fixed_policy_baselines, path);
  return c;
}

// ---- per-struct encoders ---------------------------------------------------

Json encode_campaign(const CampaignKnobs& k) {
  Json j = Json::object();
  j["threads"] = static_cast<std::int64_t>(k.threads);
  if (k.base_seed) j["base_seed"] = static_cast<std::int64_t>(*k.base_seed);
  j["checkpoint"] = k.checkpoint;
  j["trial_deadline_ms"] = k.trial_deadline_ms;
  j["overall_budget_ms"] = k.overall_budget_ms;
  j["max_retries"] = static_cast<std::int64_t>(k.max_retries);
  return j;
}

Json encode_taskset(const TasksetSpec& t) {
  Json j = Json::object();
  j["num_tasks"] = static_cast<std::int64_t>(t.num_tasks);
  j["utilization"] = t.utilization;
  j["min_period_ms"] = t.min_period_ms;
  j["max_period_ms"] = t.max_period_ms;
  j["hi_fraction"] = t.hi_fraction;
  j["lo_budget_fraction"] = t.lo_budget_fraction;
  j["seed"] = static_cast<std::int64_t>(t.seed);
  return j;
}

Json encode_doubles(const std::vector<double>& v) {
  Json a = Json::array();
  for (double d : v) a.push_back(d);
  return a;
}

}  // namespace

Json to_json(const ScenarioSpec& spec) {
  Json j = Json::object();
  j["schema"] = std::string(kScenarioSchema);
  j["name"] = spec.name;
  if (!spec.description.empty()) j["description"] = spec.description;
  j["seed"] = static_cast<std::int64_t>(spec.seed);
  j["campaign"] = encode_campaign(spec.campaign);
  if (!spec.workloads.empty()) {
    Json a = Json::array();
    for (const auto& w : spec.workloads) {
      Json e = Json::object();
      e["name"] = w.name;
      e["scale"] = static_cast<std::int64_t>(w.scale);
      e["wseed"] = static_cast<std::int64_t>(w.wseed);
      a.push_back(std::move(e));
    }
    j["workloads"] = std::move(a);
  }
  if (!spec.faults.empty()) {
    Json a = Json::array();
    for (const auto& f : spec.faults) {
      Json e = Json::object();
      e["layer"] = f.layer;
      e["target"] = f.target;
      e["workload"] = static_cast<std::int64_t>(f.workload);
      e["trials"] = static_cast<std::int64_t>(f.trials);
      a.push_back(std::move(e));
    }
    j["faults"] = std::move(a);
  }
  if (!spec.thermal.empty()) {
    Json a = Json::array();
    for (const auto& p : spec.thermal) {
      Json e = Json::object();
      e["duration_ms"] = p.duration_ms;
      e["ambient_k"] = p.ambient_k;
      a.push_back(std::move(e));
    }
    j["thermal"] = std::move(a);
  }
  if (spec.device) {
    const DeviceSpec& d = *spec.device;
    Json e = Json::object();
    e["years"] = d.years;
    e["vdd"] = d.vdd;
    e["duty_cycle"] = d.duty_cycle;
    e["toggle_rate_ghz"] = d.toggle_rate_ghz;
    e["self_heat_rise_k"] = d.self_heat_rise_k;
    e["vth0"] = d.vth0;
    e["alpha"] = d.alpha;
    e["nominal_fmax_ghz"] = d.nominal_fmax_ghz;
    e["margin"] = d.margin;
    j["device"] = std::move(e);
  }
  if (spec.os) {
    const OsSpec& o = *spec.os;
    Json e = Json::object();
    e["governor"] = o.governor;
    e["vf_index"] = static_cast<std::int64_t>(o.vf_index);
    e["big_cores"] = static_cast<std::int64_t>(o.big_cores);
    e["little_cores"] = static_cast<std::int64_t>(o.little_cores);
    e["mapping"] = o.mapping;
    e["duration_ms"] = o.duration_ms;
    e["tick_ms"] = o.tick_ms;
    e["control_period_ms"] = o.control_period_ms;
    e["sim_seed"] = static_cast<std::int64_t>(o.sim_seed);
    e["rl_episodes"] = static_cast<std::int64_t>(o.rl_episodes);
    e["tasks"] = encode_taskset(o.tasks);
    e["ser_lambda0_per_s"] = o.ser_lambda0_per_s;
    e["ser_d_exponent"] = o.ser_d_exponent;
    e["temp_limit_k"] = o.temp_limit_k;
    j["os"] = std::move(e);
  }
  if (spec.mixed_criticality) {
    const MixedCritSpec& m = *spec.mixed_criticality;
    Json e = Json::object();
    e["tasks"] = encode_taskset(m.tasks);
    if (!m.force_criticality.empty()) {
      Json a = Json::array();
      for (const auto& o : m.force_criticality) {
        Json ov = Json::object();
        ov["task"] = static_cast<std::int64_t>(o.task);
        ov["level"] = o.level;
        a.push_back(std::move(ov));
      }
      e["force_criticality"] = std::move(a);
    }
    e["overrun_factors"] = encode_doubles(m.overrun_factors);
    e["duration_ms"] = m.duration_ms;
    e["tick_ms"] = m.tick_ms;
    e["sim_seed"] = static_cast<std::int64_t>(m.sim_seed);
    j["mixed_criticality"] = std::move(e);
  }
  if (spec.replica_drift) {
    const ReplicaDriftSpec& r = *spec.replica_drift;
    Json e = Json::object();
    e["seed"] = static_cast<std::int64_t>(r.seed);
    e["jobs_per_window"] = static_cast<std::int64_t>(r.jobs_per_window);
    Json a = Json::array();
    for (const auto& p : r.phases) {
      Json ph = Json::object();
      ph["name"] = p.name;
      ph["fault_rate"] = p.fault_rate;
      ph["windows"] = static_cast<std::int64_t>(p.windows);
      a.push_back(std::move(ph));
    }
    e["phases"] = std::move(a);
    j["replica_drift"] = std::move(e);
  }
  if (spec.rollback) {
    const RollbackSpec& r = *spec.rollback;
    Json e = Json::object();
    Json s = Json::array();
    for (const auto& name : r.schedulers) s.push_back(name);
    e["schedulers"] = std::move(s);
    e["runs_per_point"] = static_cast<std::int64_t>(r.runs_per_point);
    if (r.base_seed) e["base_seed"] = static_cast<std::int64_t>(*r.base_seed);
    if (!r.error_probabilities.empty())
      e["error_probabilities"] = encode_doubles(r.error_probabilities);
    j["rollback"] = std::move(e);
  }
  if (spec.crosslayer) {
    const CrossLayerSpec& c = *spec.crosslayer;
    Json e = Json::object();
    e["env_seed"] = static_cast<std::int64_t>(c.env_seed);
    e["alpha"] = c.alpha;
    e["gamma"] = c.gamma;
    e["epsilon"] = c.epsilon;
    e["epsilon_decay"] = c.epsilon_decay;
    e["learner_seed"] = static_cast<std::int64_t>(c.learner_seed);
    e["episodes"] = static_cast<std::int64_t>(c.episodes);
    e["steps_per_episode"] = static_cast<std::int64_t>(c.steps_per_episode);
    e["eval_episodes"] = static_cast<std::int64_t>(c.eval_episodes);
    e["fixed_policy_baselines"] = c.fixed_policy_baselines;
    j["crosslayer"] = std::move(e);
  }
  return j;
}

ScenarioSpec scenario_from_json(const Json& doc) {
  const std::string root = "scenario";
  expect_object(doc, root);
  const std::string schema = get_string(doc, "schema", std::string(kScenarioSchema), root);
  if (schema != kScenarioSchema)
    fail(root + ".schema", "unsupported schema '" + schema + "' (this build reads " +
                               std::string(kScenarioSchema) + ")");
  ScenarioSpec spec;
  spec.name = get_string(doc, "name", spec.name, root);
  spec.description = get_string(doc, "description", spec.description, root);
  spec.seed = get_seed(doc, "seed", spec.seed, root);
  if (const Json* c = find_member(doc, "campaign"))
    spec.campaign = decode_campaign(*c, root + ".campaign");
  if (const Json* w = find_member(doc, "workloads")) {
    if (w->type() != Json::Type::kArray) fail(root + ".workloads", "expected array");
    for (std::size_t i = 0; i < w->size(); ++i)
      spec.workloads.push_back(
          decode_workload(w->at(i), root + ".workloads[" + std::to_string(i) + "]"));
  }
  if (const Json* f = find_member(doc, "faults")) {
    if (f->type() != Json::Type::kArray) fail(root + ".faults", "expected array");
    for (std::size_t i = 0; i < f->size(); ++i) {
      const std::string p = root + ".faults[" + std::to_string(i) + "]";
      FaultModelSpec fm = decode_fault(f->at(i), p);
      if (fm.workload >= spec.workloads.size())
        fail(p + ".workload", "workload index " + std::to_string(fm.workload) +
                                  " out of range (have " +
                                  std::to_string(spec.workloads.size()) + " workloads)");
      spec.faults.push_back(std::move(fm));
    }
  }
  if (const Json* t = find_member(doc, "thermal")) {
    if (t->type() != Json::Type::kArray) fail(root + ".thermal", "expected array");
    for (std::size_t i = 0; i < t->size(); ++i)
      spec.thermal.push_back(
          decode_thermal(t->at(i), root + ".thermal[" + std::to_string(i) + "]"));
  }
  if (const Json* d = find_member(doc, "device"))
    spec.device = decode_device(*d, root + ".device");
  if (const Json* o = find_member(doc, "os")) spec.os = decode_os(*o, root + ".os");
  if (const Json* m = find_member(doc, "mixed_criticality"))
    spec.mixed_criticality = decode_mixed_crit(*m, root + ".mixed_criticality");
  if (const Json* r = find_member(doc, "replica_drift"))
    spec.replica_drift = decode_replica(*r, root + ".replica_drift");
  if (const Json* r = find_member(doc, "rollback"))
    spec.rollback = decode_rollback(*r, root + ".rollback");
  if (const Json* c = find_member(doc, "crosslayer"))
    spec.crosslayer = decode_crosslayer(*c, root + ".crosslayer");
  return spec;
}

ScenarioSpec parse_scenario(std::string_view text, const std::string& origin) {
  Json doc;
  try {
    doc = Json::parse(text);
  } catch (const obs::JsonParseError& e) {
    // Map the parser's byte offset to a 1-based line:column in the original
    // text so editors can jump straight to the defect.
    std::size_t line = 1, col = 1;
    const std::size_t stop = std::min(e.offset(), text.size());
    for (std::size_t i = 0; i < stop; ++i) {
      if (text[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw SpecError(origin + ":" + std::to_string(line) + ":" + std::to_string(col) +
                    ": " + e.what());
  }
  try {
    return scenario_from_json(doc);
  } catch (const SpecError& e) {
    throw SpecError(origin + ": " + e.what());
  }
}

ScenarioSpec load_scenario_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw SpecError(path + ": cannot open scenario file");
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return parse_scenario(text, path);
}

}  // namespace lore::scenario
