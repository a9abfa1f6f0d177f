#include "common.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "baselines/baselines.h"
#include "lp/lp_engine.h"
#include "lp/presolve.h"
#include "model/instance_io.h"
#include "model/plan.h"
#include "planner/formulation.h"
#include "planner/local_search.h"
#include "server/api_json.h"

namespace perfbench {

using namespace etransform;

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

/// Small per-thread id for the span log's Chrome tracks.
std::uint64_t this_thread_tid() {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t tid = next.fetch_add(1);
  return tid;
}

/// Cap on program events copied into the written trace (keeps the file a
/// few MB on the longest runs).
constexpr std::size_t kMaxKeptProgramEvents = 200000;

}  // namespace

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - kProcessStart)
      .count();
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

bool money_equal(double a, double b) {
  return std::abs(a - b) <= kMoneyRelTol * std::max(1.0, std::abs(b));
}

// ---------------------------------------------------------------------------
// Samples

void Samples::add(const std::string& name, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  values_[name].push_back(value);
}

std::vector<double> Samples::get(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = values_.find(name);
  return it == values_.end() ? std::vector<double>{} : it->second;
}

double Samples::pct(const std::string& name, double p) const {
  return percentile(get(name), p);
}

std::map<std::string, double> Samples::means() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const auto& [name, values] : values_) out[name] = mean(values);
  return out;
}

// ---------------------------------------------------------------------------
// Report

Report::Report(const Args& args) : args_(args) {}

void Report::attempt(long count) {
  const std::lock_guard<std::mutex> lock(mu_);
  attempted_ += count;
}

void Report::fail(const std::string& what) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  if (failures_.size() < 50) failures_.push_back(what);
  std::cerr << "CHECK FAILED: " << what << "\n";
}

bool Report::check(bool ok, const std::string& what) {
  if (!ok) fail(what);
  return ok;
}

void Report::metric(const std::string& name, const std::string& unit,
                    double value) {
  // A metric that could not be computed must not pass as a measurement.
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, {unit, value}});
}

int Report::finish() {
  const bool correct = failed_ == 0 && attempted_ > 0;
  const double failed_share =
      attempted_ > 0 ? static_cast<double>(failed_) /
                           static_cast<double>(attempted_)
                     : 1.0;
  std::printf("workload %s seed %llu trace %d: attempted %ld failed %ld "
              "failed_share %.6f\n",
              args_.workload.c_str(),
              static_cast<unsigned long long>(args_.seed), args_.trace ? 1 : 0,
              attempted_, failed_, failed_share);
  Value metrics = Value::object();
  for (const auto& [name, unit_value] : metrics_) {
    std::printf("  %-30s %16.6f %s\n", name.c_str(), unit_value.second,
                unit_value.first.c_str());
    Value entry = Value::object();
    entry.set("value", Value::number(unit_value.second));
    entry.set("unit", Value::string(unit_value.first));
    metrics.set(name, std::move(entry));
  }

  Value meta = Value::object();
  meta.set("workload", Value::string(args_.workload));
  meta.set("seed", Value::number(static_cast<double>(args_.seed)));
  meta.set("seconds", Value::number(args_.seconds));
  meta.set("trace", Value::boolean(args_.trace));
  meta.set("nproc", Value::number(static_cast<double>(
                        std::thread::hardware_concurrency())));
  meta.set("build_type", Value::string(args_.build_type));
  meta.set("compiler", Value::string(args_.compiler));
  meta.set("commit", Value::string(args_.commit));
  record_.set("meta", std::move(meta));
  record_.set("metrics", metrics);
  record_.set("attempted", Value::number(static_cast<double>(attempted_)));
  record_.set("failed", Value::number(static_cast<double>(failed_)));
  record_.set("failed_share", Value::number(failed_share));
  Value failures = Value::array();
  for (const std::string& f : failures_) failures.push(Value::string(f));
  record_.set("failures", std::move(failures));

  std::error_code ec;
  std::filesystem::create_directories(args_.out_dir, ec);
  const std::string path = args_.out_dir + "/" + args_.workload + "-seed" +
                           std::to_string(args_.seed) + "-trace" +
                           (args_.trace ? "1" : "0") + ".json";
  std::ofstream out(path);
  if (out) {
    out << record_.dump() << "\n";
    std::printf("run record: %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }

  Value result = Value::object();
  result.set("correct", Value::boolean(correct));
  result.set("attempted", Value::number(static_cast<double>(attempted_)));
  result.set("failed", Value::number(static_cast<double>(failed_)));
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// SpanLog

std::uint64_t SpanLog::reserve() {
  if (!enabled()) return 0;
  const std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

std::uint64_t SpanLog::add(const char* layer, const std::string& name,
                           std::uint64_t parent, double start_ms,
                           double end_ms) {
  const std::uint64_t id = reserve();
  add_reserved(id, layer, name, parent, start_ms, end_ms);
  return id;
}

void SpanLog::add_reserved(std::uint64_t id, const char* layer,
                           const std::string& name, std::uint64_t parent,
                           double start_ms, double end_ms) {
  if (!enabled()) return;
  Span span;
  span.id = id;
  span.parent = parent;
  span.layer = layer;
  span.name = name;
  span.start_ms = start_ms;
  span.end_ms = end_ms;
  span.tid = this_thread_tid();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::map<std::string, double> SpanLog::self_ms_by_layer() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::uint64_t, double> child_ms;
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ms[s.parent] += s.end_ms - s.start_ms;
  }
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    const auto it = child_ms.find(s.id);
    const double children = it == child_ms.end() ? 0.0 : it->second;
    out[s.layer] += std::max(0.0, s.end_ms - s.start_ms - children);
  }
  return out;
}

void SpanLog::append_chrome(Value& events) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    Value e = Value::object();
    e.set("ph", Value::string("X"));
    e.set("pid", Value::number(1));
    e.set("tid", Value::number(static_cast<double>(s.tid)));
    e.set("ts", Value::number(s.start_ms * 1e3));
    e.set("dur", Value::number((s.end_ms - s.start_ms) * 1e3));
    e.set("cat", Value::string(s.layer));
    e.set("name", Value::string(s.name));
    Value args = Value::object();
    args.set("span_id", Value::number(static_cast<double>(s.id)));
    args.set("parent", Value::number(static_cast<double>(s.parent)));
    e.set("args", std::move(args));
    events.push(std::move(e));
  }
}

Timed::Timed(SpanLog& log, const char* layer, std::string name,
             std::uint64_t parent)
    : log_(log),
      layer_(layer),
      name_(std::move(name)),
      parent_(parent),
      id_(log.reserve()),
      start_ms_(now_ms()) {}

Timed::~Timed() { stop(); }

double Timed::stop() {
  const double end = now_ms();
  if (!stopped_) {
    stopped_ = true;
    log_.add_reserved(id_, layer_, name_, parent_, start_ms_, end);
  }
  return end - start_ms_;
}

// ---------------------------------------------------------------------------
// Program spans

namespace {

/// Layer of a program span name (TraceRecorder / SolveScope names).
const char* layer_of_span(const std::string& name) {
  const auto starts = [&name](const char* prefix) {
    return name.rfind(prefix, 0) == 0;
  };
  if (starts("simplex") || starts("presolve")) return "lp";
  if (starts("branch_and_bound") || starts("root_lp") ||
      starts("root_dive") || starts("cuts") || starts("bnb.") ||
      starts("brute_force")) {
    return "milp";
  }
  if (starts("planner") || starts("formulation") || starts("local_search") ||
      starts("heuristic") || starts("lagrangian") ||
      starts("multi_heuristic") || starts("migration_smoothing") ||
      starts("stage")) {
    return "planner";
  }
  if (starts("server.")) return "server";
  if (starts("job")) return "service";
  if (starts("pool.")) return "common";
  return "other";
}

}  // namespace

void ProgramProfile::add_drain(const std::string& chrome_json, bool keep) {
  Value doc;
  std::string error;
  if (!json::parse(chrome_json, doc, &error)) {
    throw std::runtime_error("trace drain is not valid JSON: " + error);
  }
  const Value* events = doc.get("traceEvents");
  if (events == nullptr) return;
  struct Open {
    std::string name;
    double ts = 0.0;
    double child_us = 0.0;
  };
  std::map<double, std::vector<Open>> stacks;  // by tid
  for (const Value& e : events->arr) {
    const Value* ph = e.get("ph");
    const Value* tid = e.get("tid");
    const Value* ts = e.get("ts");
    const Value* name = e.get("name");
    if (keep && kept_.size() < kMaxKeptProgramEvents) {
      Value copy = e;
      copy.set("pid", Value::number(2));
      kept_.push_back(std::move(copy));
    }
    if (ph == nullptr || tid == nullptr || ts == nullptr || name == nullptr) {
      continue;
    }
    std::vector<Open>& stack = stacks[tid->num];
    if (ph->str == "B") {
      stack.push_back({name->str, ts->num, 0.0});
    } else if (ph->str == "E" && !stack.empty()) {
      const Open top = stack.back();
      stack.pop_back();
      const double dur = ts->num - top.ts;
      self_ms_[top.name] += std::max(0.0, dur - top.child_us) / 1e3;
      if (!stack.empty()) stack.back().child_us += dur;
    }
  }
}

double ProgramProfile::self_ms(const std::string& name_prefix) const {
  double total = 0.0;
  for (const auto& [name, ms] : self_ms_) {
    if (name.rfind(name_prefix, 0) == 0) total += ms;
  }
  return total;
}

std::map<std::string, double> ProgramProfile::self_ms_by_layer() const {
  std::map<std::string, double> out;
  for (const auto& [name, ms] : self_ms_) out[layer_of_span(name)] += ms;
  return out;
}

void ProgramProfile::append_chrome(Value& events) const {
  for (const Value& e : kept_) events.push(e);
}

std::string write_chrome_trace(const Args& args, const SpanLog& log,
                               const ProgramProfile& program) {
  Value events = Value::array();
  log.append_chrome(events);
  program.append_chrome(events);
  Value doc = Value::object();
  doc.set("displayTimeUnit", Value::string("ms"));
  doc.set("traceEvents", std::move(events));
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace.json";
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << doc.dump() << "\n";
  return path;
}

// ---------------------------------------------------------------------------
// Per-layer metric table

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Same names, units and order as per_layer in BENCHMARK.json.
constexpr LayerMetric kLayerMetrics[] = {
    {"lp.presolve_ms", "ms"},
    {"lp.root_lp_ms", "ms"},
    {"lp.root_pivots", "count"},
    {"lp.factorize_ms", "ms"},
    {"lp.simplex_ms", "ms"},
    {"lp.refactorizations", "count"},
    {"lp.pivots", "count"},
    {"lp.bound_flips", "count"},
    {"lp.us_per_pivot", "us"},
    {"lp.self_ms", "ms"},
    {"milp.bnb_ms", "ms"},
    {"milp.nodes", "count"},
    {"milp.lp_iters", "count"},
    {"milp.nodes_per_s", "1/s"},
    {"milp.first_incumbent_ms", "ms"},
    {"milp.first_incumbent_node", "count"},
    {"milp.bnb_plan_share", "ratio"},
    {"milp.proven_share", "ratio"},
    {"milp.root_gap_pct", "%"},
    {"milp.cuts_applied", "count"},
    {"milp.cut_round_ms", "ms"},
    {"milp.self_ms", "ms"},
    {"planner.formulation_ms", "ms"},
    {"planner.decode_ms", "ms"},
    {"planner.heuristic_ms", "ms"},
    {"planner.local_search_ms", "ms"},
    {"planner.self_ms", "ms"},
    {"cost.price_ms", "ms"},
    {"model.parse_ms", "ms"},
    {"common.json_parse_ms", "ms"},
    {"common.json_dump_ms", "ms"},
    {"server.submit_rtt_ms.p50", "ms"},
    {"server.submit_rtt_ms.p99", "ms"},
    {"server.hit_rtt_ms.p50", "ms"},
    {"server.hit_rtt_ms.p99", "ms"},
    {"server.poll_rtt_ms.p50", "ms"},
    {"server.cache_hit_share", "ratio"},
    {"server.rejected_429", "count"},
    {"service.queue_wait_ms.p50", "ms"},
    {"service.queue_wait_ms.p99", "ms"},
    {"service.solve_ms.p50", "ms"},
    {"service.solve_ms.p99", "ms"},
    {"loadgen.late_ms.p99", "ms"},
    {"telemetry.trace_overhead_pct", "%"},
};

}  // namespace

void emit_layer_metrics(Report& gate,
                        const std::map<std::string, double>& values) {
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = values.find(m.name);
    gate.metric(m.name, m.unit, it == values.end() ? 0.0 : it->second);
  }
}

// ---------------------------------------------------------------------------
// Correctness

void check_report(const ConsolidationInstance& instance,
                    const PlanningHorizon& horizon,
                    const PlannerReport& report, double bound, Report& gate,
                    const std::string& label) {
  const auto first = [](const std::vector<std::string>& v) {
    return v.empty() ? std::string() : v.front();
  };
  double repriced = 0.0;
  if (horizon.is_static()) {
    const std::vector<std::string> violations =
        check_plan(instance, report.plan);
    gate.check(violations.empty(),
               label + ": check_plan: " + first(violations));
    Plan copy = report.plan;
    CostModel(instance).price_plan(copy);
    repriced = copy.cost.total();
  } else {
    if (!gate.check(report.is_multi_period() &&
                        static_cast<int>(report.multi.periods.size()) ==
                            horizon.num_periods(),
                    label + ": multi-period report has the wrong shape")) {
      return;
    }
    std::vector<Plan> plans;
    for (int t = 0; t < horizon.num_periods(); ++t) {
      const ConsolidationInstance period = apply_period(instance, horizon, t);
      Plan copy = report.multi.periods[static_cast<std::size_t>(t)];
      const std::vector<std::string> violations = check_plan(period, copy);
      gate.check(violations.empty(), label + ": period " + std::to_string(t) +
                                         " check_plan: " + first(violations));
      CostModel(period).price_plan(copy);
      plans.push_back(std::move(copy));
    }
    repriced = assemble_multi_period(instance, horizon, std::move(plans),
                                     "recheck")
                   .cost.total();
  }
  char buf[160];
  std::snprintf(buf, sizeof buf, ": returned %.6f, re-priced %.6f",
                report.objective(), repriced);
  gate.check(money_equal(report.objective(), repriced),
             label + ": cost differs from the CostModel re-price" + buf);
  if (std::isfinite(bound)) {
    std::snprintf(buf, sizeof buf, ": bound %.6f > cost %.6f", bound,
                  repriced);
    gate.check(bound <= repriced + kMoneyRelTol * std::max(1.0, repriced),
               label + ": lower bound above cost" + buf);
  }
}

// ---------------------------------------------------------------------------
// Layer probes

const SolveStats* find_scope(const SolveStats& stats, const std::string& name) {
  if (stats.name == name) return &stats;
  for (const SolveStats& c : stats.children) {
    if (const SolveStats* hit = find_scope(c, name)) return hit;
  }
  return nullptr;
}

void probe_layers(const CostModel& model, const PlannerOptions& options,
                  const PlannerReport& report, SpanLog& log,
                  std::uint64_t parent, Samples& samples, Report& gate,
                  const std::string& label) {
  const ConsolidationInstance& instance = model.instance();
  {
    const std::string text = write_instance(instance);
    Timed t(log, "model", "model.parse_instance", parent);
    const ConsolidationInstance parsed = parse_instance(text);
    samples.add("model.parse_ms", t.stop());
    gate.check(parsed.num_groups() == instance.num_groups() &&
                   parsed.num_sites() == instance.num_sites(),
               label + ": .etf round trip changed the estate's shape");
  }
  {
    GreedyOptions greedy_options;
    greedy_options.volume_aware = true;
    Plan seed;
    {
      Timed t(log, "planner", "planner.plan_greedy", parent);
      seed = plan_greedy(model, options.enable_dr, greedy_options);
      samples.add("planner.heuristic_ms", t.stop());
    }
    Timed t(log, "planner", "planner.improve_plan", parent);
    improve_plan(model, seed, options.local_search);
    samples.add("planner.local_search_ms", t.stop());
  }
  {
    Plan copy = report.plan;
    Timed t(log, "cost", "cost.price_plan", parent);
    model.price_plan(copy);
    samples.add("cost.price_ms", t.stop());
  }
  {
    const Value doc = server::plan_result_json(instance, report, 0.0);
    std::string text;
    {
      Timed t(log, "common", "common.json_dump", parent);
      text = doc.dump();
      samples.add("common.json_dump_ms", t.stop());
    }
    Value parsed;
    Timed t(log, "common", "common.json_parse", parent);
    const bool ok = json::parse(text, parsed, nullptr);
    samples.add("common.json_parse_ms", t.stop());
    gate.check(ok, label + ": result JSON does not parse back");
  }
}

void probe_formulation(const CostModel& model, const PlanningHorizon& horizon,
                       const PlannerOptions& options,
                       const PlannerReport& report, SpanLog& log,
                       std::uint64_t parent, Samples& samples, Report& gate,
                       const std::string& label) {
  const SolveStats* scope = find_scope(report.stats, "formulation");
  if (!gate.check(scope != nullptr,
                  label + ": the solve recorded no formulation scope")) {
    return;
  }
  samples.add("planner.formulation_ms", scope->wall_ms);
  const double variables = scope->metric("variables");
  const double rows = scope->metric("rows");

  FormulationOptions fo;
  fo.enable_dr = options.enable_dr;
  fo.business_impact_omega = options.business_impact_omega;
  fo.economies_of_scale = options.economies_of_scale;
  fo.decode_dedicated_counts =
      options.dr_sizing == PlannerOptions::DrSizing::kDedicated;
  fo.horizon = horizon.is_static() ? nullptr : &horizon;
  std::vector<BackupSizing> sizings = {BackupSizing::kDedicated};
  if (options.enable_dr && !fo.decode_dedicated_counts) {
    sizings.insert(sizings.begin(), BackupSizing::kSharedJoint);
  }
  Formulation formulation;
  bool matched = false;
  for (const BackupSizing sizing : sizings) {
    fo.backup_sizing = sizing;
    formulation = build_formulation(model, fo);
    matched = formulation.model.num_variables() == variables &&
              formulation.model.num_constraints() == rows;
    if (matched) break;
  }
  char shape[120];
  std::snprintf(shape, sizeof shape, " %.0f variables and %.0f rows",
                variables, rows);
  if (!gate.check(matched, label +
                               ": no rebuilt formulation has the solved one's" +
                               shape)) {
    return;
  }
  {
    SolveContext ctx;
    Timed pt(log, "lp", "lp.presolve", parent);
    const lp::PresolveResult presolved = lp::presolve(formulation.model, ctx);
    samples.add("lp.presolve_ms", pt.stop());
    if (presolved.status != lp::PresolveStatus::kInfeasible) {
      const lp::LpEngine engine(options.milp.lp);
      Timed rt(log, "lp", "lp.root_lp", parent);
      const lp::LpSolution root = engine.solve(presolved.reduced, ctx);
      samples.add("lp.root_lp_ms", rt.stop());
      samples.add("lp.root_pivots", root.iterations);
      if (gate.check(root.status == lp::SolveStatus::kOptimal,
                     label + ": root LP relaxation not optimal")) {
        char buf[120];
        std::snprintf(buf, sizeof buf, ": root LP %.6f > plan %.6f",
                      root.objective, report.objective());
        gate.check(root.objective <=
                       report.objective() +
                           kMoneyRelTol * std::max(1.0, report.objective()),
                   label + ": root relaxation above the plan cost" + buf);
      }
    } else {
      gate.fail(label + ": presolve reports the formulation infeasible");
    }
  }
  // Decode the returned assignment through the formulation's columns: the
  // round trip must give back the same placement.
  const int groups = model.instance().num_groups();
  std::vector<double> values(
      static_cast<std::size_t>(formulation.model.num_variables()), 0.0);
  const auto set_one = [&values](int var) {
    if (var >= 0) values[static_cast<std::size_t>(var)] = 1.0;
  };
  const auto mark = [&](const Plan& plan,
                        const std::vector<std::vector<int>>& x,
                        const std::vector<std::vector<int>>& y) {
    for (int i = 0; i < groups; ++i) {
      const auto si = static_cast<std::size_t>(i);
      set_one(x[si][static_cast<std::size_t>(plan.primary[si])]);
      if (plan.has_dr() && plan.secondary[si] >= 0) {
        set_one(y[si][static_cast<std::size_t>(plan.secondary[si])]);
      }
    }
  };
  if (formulation.is_time_expanded()) {
    for (std::size_t t = 0; t < report.multi.periods.size(); ++t) {
      mark(report.multi.periods[t], formulation.xt[t],
           fo.enable_dr ? formulation.yt[t] : formulation.xt[t]);
    }
    Timed t(log, "planner", "planner.decode_plan", parent);
    const MultiPeriodPlan decoded =
        decode_multi_period_plan(model, formulation, fo, values, "decode");
    samples.add("planner.decode_ms", t.stop());
    bool same = decoded.periods.size() == report.multi.periods.size();
    for (std::size_t p = 0; same && p < decoded.periods.size(); ++p) {
      same = decoded.periods[p].primary == report.multi.periods[p].primary;
    }
    gate.check(same, label + ": decode round trip changed the placement");
  } else {
    mark(report.plan, formulation.x,
         fo.enable_dr ? formulation.y : formulation.x);
    Timed t(log, "planner", "planner.decode_plan", parent);
    const Plan decoded = decode_plan(model, formulation, fo, values, "decode");
    samples.add("planner.decode_ms", t.stop());
    gate.check(decoded.primary == report.plan.primary &&
                   decoded.secondary == report.plan.secondary,
               label + ": decode round trip changed the placement");
  }
}

}  // namespace perfbench
