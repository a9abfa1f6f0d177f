// The two exact workloads: closed-loop, node-budgeted MILP solves through
// EtransformPlanner::plan, one at a time on one thread.
//
//  estates-exact    enterprise1 and Florida (paper §VI), static, no DR.
//  dr-horizon-exact the joint-DR 10 groups x 4 sites estates of the planner
//                   tests' DrNeverWorseThanGreedyDr family (Rng seeds
//                   500..505) plus the right-sizing estate over a diurnal
//                   T=4 horizon (known optimum $546).
//
// The estates are the fixed named instances, so plan cost, bound and every
// solver count repeat exactly between runs; the benchmark seed only shuffles
// the order of the solves inside each pass. A pass solves every estate once;
// passes repeat until the next one would overrun --seconds (at least two).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common.h"
#include "common/random.h"
#include "datagen/generators.h"
#include "model/instance_io.h"
#include "telemetry/trace.h"
#include "workloads.h"

namespace perfbench {

using namespace etransform;

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Node budgets (no wall-clock limit anywhere: counts repeat exactly).
constexpr int kEstateNodes = 500;
constexpr int kDrNodes = 100;
constexpr int kHorizonNodes = 2000;
/// DR family seeds, as in the planner tests.
constexpr std::uint64_t kDrFirstSeed = 500;
constexpr int kDrEstates = 6;
/// The right-sizing horizon of EXPERIMENTS E13 and its proven optimum.
constexpr double kHorizonOptimum = 546.0;
/// Latency limit for goodput: the planner's production solve budget.
constexpr double kSolveLimitMs = 60000.0;
/// A set-up takes a few ms, so each setup_s sample is the mean over a batch
/// of set-ups. One sample comes before the first pass and kSetupPerPass
/// after every pass, so the samples span the run as the passes do; the
/// median is reported.
constexpr int kSetupBatch = 8;
constexpr int kSetupPerPass = 3;

struct Case {
  std::string name;
  ConsolidationInstance instance;
  PlanningHorizon horizon;
  PlannerOptions options;
  double known_optimum = kNaN;
};

PlannerOptions exact_options(int max_nodes, bool dr) {
  // The production exact engine: cuts on, pseudocost branching, presolve
  // on (the SolverOptions defaults), sequential, node budget only.
  PlannerOptions options;
  options.engine = PlannerOptions::Engine::kExact;
  options.enable_dr = dr;
  options.milp.search.max_nodes = max_nodes;
  options.milp.search.time_limit_ms = 0;
  options.milp.search.threads = 1;
  return options;
}

/// Estates reach the planner as .etf files do: written and parsed back.
ConsolidationInstance via_etf(const ConsolidationInstance& instance) {
  return parse_instance(write_instance(instance));
}

std::vector<Case> make_cases(const std::string& workload) {
  std::vector<Case> cases;
  if (workload == "estates-exact") {
    cases.push_back({"enterprise1", via_etf(make_enterprise1()), {},
                     exact_options(kEstateNodes, false)});
    cases.push_back(
        {"florida", via_etf(make_florida()), {},
         exact_options(kEstateNodes, false)});
    return cases;
  }
  for (int k = 0; k < kDrEstates; ++k) {
    Rng rng(kDrFirstSeed + static_cast<std::uint64_t>(k));
    cases.push_back({"dr-" + std::to_string(kDrFirstSeed + k),
                     via_etf(make_random_instance(rng, 10, 4, 2)),
                     {},
                     exact_options(kDrNodes, true)});
  }
  TrafficCurveSpec curve;
  curve.shape = TrafficCurveSpec::Shape::kDiurnal;
  curve.num_periods = 4;
  curve.trough_multiplier = 0.25;
  curve.migration_cost_per_server = 0.5;
  cases.push_back({"rightsizing-T4", via_etf(make_rightsizing_estate({})),
                   make_traffic_curve(curve),
                   exact_options(kHorizonNodes, false), kHorizonOptimum});
  return cases;
}

/// The deterministic counts of one solve (choosing-metrics §8).
struct Counts {
  double nodes = 0;
  double lp_iters = 0;
  double refactorizations = 0;
  double cuts_applied = 0;
  double first_incumbent_node = -1;
  bool operator==(const Counts&) const = default;
};

struct SolveResult {
  double wall_ms = 0.0;
  double objective = 0.0;
  double bound = kNaN;
  double root_bound = kNaN;
  double first_incumbent_ms = kNaN;
  bool proven = false;
  bool bnb_plan = false;
  Counts counts;
  double bound_flips = 0;
  double bnb_ms = 0;
  double cuts_ms = 0;
};

/// Largest bound in the stats trace; root-phase points only when
/// `root_only` (the B&B trace records node 1 until the tree starts).
double trace_bound(const SolveStats& s, bool root_only) {
  double best = -std::numeric_limits<double>::infinity();
  for (const TracePoint& p : s.trace) {
    if (!root_only || p.node <= 1) best = std::max(best, p.bound);
  }
  for (const SolveStats& c : s.children) {
    best = std::max(best, trace_bound(c, root_only));
  }
  return best;
}

double gap_pct(double cost, double bound) {
  if (!std::isfinite(bound) || cost <= 0.0) return 0.0;
  return 100.0 * std::max(0.0, cost - bound) / cost;
}

SolveResult solve_case(const Case& c, const CostModel& model,
                       telemetry::TraceRecorder* recorder, Report& gate,
                       PlannerReport* report_out) {
  const EtransformPlanner planner(c.options);
  SolveContext ctx;
  SolveResult r;
  double event_bound = -std::numeric_limits<double>::infinity();
  ctx.events.on_bound_improvement = [&event_bound](const BoundEvent& e) {
    event_bound = std::max(event_bound, e.bound);
  };
  ctx.events.on_incumbent = [&r](const IncumbentEvent& e) {
    if (r.counts.first_incumbent_node < 0) {
      r.counts.first_incumbent_node = static_cast<double>(e.node);
      r.first_incumbent_ms = e.time_ms;
    }
  };
  ctx.set_trace(recorder);
  PlanInput input(model, c.horizon);
  const double start = now_ms();
  PlannerReport report = planner.plan(input, ctx);
  r.wall_ms = now_ms() - start;

  const SolveStats& stats = ctx.stats();
  r.objective = report.objective();
  r.proven = report.proven_optimal;
  r.bnb_plan = report.used_exact_solver;
  // A heuristic fallback reports no bound; the B&B bound still holds.
  r.bound = std::max({std::isfinite(report.lower_bound)
                          ? report.lower_bound
                          : -std::numeric_limits<double>::infinity(),
                      event_bound, trace_bound(stats, false)});
  if (!std::isfinite(r.bound)) r.bound = kNaN;
  r.root_bound = trace_bound(stats, true);
  if (!std::isfinite(r.root_bound)) r.root_bound = kNaN;
  r.counts.nodes = stats.deep_metric("nodes");
  r.counts.lp_iters = stats.deep_metric("pivots");
  r.counts.refactorizations = stats.deep_metric("refactorizations");
  r.counts.cuts_applied = stats.deep_metric("applied");
  r.bound_flips = stats.deep_metric("bound_flips");
  if (const SolveStats* bnb = find_scope(stats, "branch_and_bound")) {
    r.bnb_ms = bnb->wall_ms;
  }
  if (const SolveStats* cuts = find_scope(stats, "cuts")) {
    r.cuts_ms = cuts->wall_ms;
  }

  check_report(c.instance, c.horizon, report, r.bound, gate, c.name);
  if (r.proven) {
    char buf[160];
    std::snprintf(buf, sizeof buf, ": proven plan %.6f vs bound %.6f",
                  r.objective, r.bound);
    gate.check(gap_pct(r.objective, r.bound) <=
                   100.0 * (c.options.milp.search.relative_gap + kMoneyRelTol),
               c.name + ": proven optimal but the gap is open" + buf);
    if (std::isfinite(c.known_optimum)) {
      std::snprintf(buf, sizeof buf, ": proven %.6f, known optimum %.6f",
                    r.objective, c.known_optimum);
      gate.check(money_equal(r.objective, c.known_optimum),
                 c.name + ": proven optimum differs from the known one" + buf);
    }
  }
  if (report_out != nullptr) *report_out = std::move(report);
  return r;
}

}  // namespace

int run_exact(const Args& args) {
  Report gate(args);
  Value& record = gate.record();

  // ---- set-up: input generation, .etf round trip and cost models ------
  std::vector<double> setup_s;
  std::vector<Case> cases;
  std::vector<std::unique_ptr<CostModel>> models;
  const auto setup_batch = [&](bool keep) {
    // A batch is released after its timer stops, so teardown is not timed.
    std::vector<std::vector<Case>> batch_cases(kSetupBatch);
    std::vector<std::vector<std::unique_ptr<CostModel>>> batch_models(
        kSetupBatch);
    const double start = now_ms();
    for (std::size_t rep = 0; rep < batch_cases.size(); ++rep) {
      batch_cases[rep] = make_cases(args.workload);
      for (const Case& c : batch_cases[rep]) {
        batch_models[rep].push_back(std::make_unique<CostModel>(c.instance));
      }
    }
    setup_s.push_back((now_ms() - start) / 1e3 / kSetupBatch);
    if (keep) {
      // Moving a vector keeps its elements' addresses, which the models
      // hold.
      models = std::move(batch_models.back());
      cases = std::move(batch_cases.back());
    }
  };
  setup_batch(true);

  // ---- measurement: passes over every case, seeded order ----------------
  std::mt19937_64 order_rng(args.seed);
  std::vector<std::size_t> order(cases.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  SpanLog log(false);
  Samples layer;  // probe samples (traced passes)
  ProgramProfile program;
  std::unique_ptr<telemetry::TraceRecorder> recorder;
  if (args.trace) {
    recorder = std::make_unique<telemetry::TraceRecorder>(1u << 18);
  }

  std::vector<double> untraced_pass_s;
  std::vector<double> traced_pass_s;
  std::vector<std::vector<double>> wall_ms(cases.size());  // per case
  std::vector<std::vector<Counts>> counts(cases.size());
  std::vector<SolveResult> first_results(cases.size());
  double traced_totals_bnb_ms = 0, traced_nodes = 0, traced_lp_iters = 0,
         traced_refactor = 0, traced_flips = 0, traced_cuts = 0,
         traced_cuts_ms = 0;
  std::vector<double> first_inc_ms, first_inc_node, root_gap;
  double traced_bnb_plans = 0, traced_proven = 0, traced_solves = 0;
  std::uint64_t dropped = 0;

  const double budget_ms = 1e3 * args.seconds;
  const double measure_start = now_ms();
  for (int pass = 0;; ++pass) {
    const bool traced = args.trace && pass % 2 == 1;
    log.set_enabled(traced);
    std::shuffle(order.begin(), order.end(), order_rng);
    double pass_ms = 0.0;
    const double pass_start = now_ms();
    const std::uint64_t pass_span = log.reserve();
    for (const std::size_t idx : order) {
      const Case& c = cases[idx];
      const CostModel& model = *models[idx];
      gate.attempt();
      PlannerReport report;
      SolveResult r;
      const double solve_start = now_ms();
      const std::uint64_t solve_span = log.reserve();
      try {
        r = solve_case(c, model, traced ? recorder.get() : nullptr, gate,
                       &report);
      } catch (const std::exception& e) {
        gate.fail(c.name + ": plan() threw: " + e.what());
        continue;
      }
      log.add("planner", "EtransformPlanner::plan", solve_span, solve_start,
              solve_start + r.wall_ms);
      pass_ms += r.wall_ms;
      wall_ms[idx].push_back(r.wall_ms);
      counts[idx].push_back(r.counts);
      if (pass == 0) first_results[idx] = r;
      std::printf(
          "solve %-15s pass %d%s wall_ms %.1f cost %.4f bound %.4f gap_pct "
          "%.4f proven %d bnb_plan %d nodes %.0f lp_iters %.0f refactor "
          "%.0f cuts %.0f first_inc_node %.0f\n",
          c.name.c_str(), pass, traced ? " (traced)" : "", r.wall_ms,
          r.objective, r.bound, gap_pct(r.objective, r.bound), r.proven ? 1 : 0,
          r.bnb_plan ? 1 : 0, r.counts.nodes, r.counts.lp_iters,
          r.counts.refactorizations, r.counts.cuts_applied,
          r.counts.first_incumbent_node);
      if (traced) {
        dropped += recorder->dropped();
        program.add_drain(recorder->to_chrome_json(), traced_pass_s.empty());
        recorder->clear();
        traced_totals_bnb_ms += r.bnb_ms;
        traced_nodes += r.counts.nodes;
        traced_lp_iters += r.counts.lp_iters;
        traced_refactor += r.counts.refactorizations;
        traced_flips += r.bound_flips;
        traced_cuts += r.counts.cuts_applied;
        traced_cuts_ms += r.cuts_ms;
        traced_solves += 1;
        traced_bnb_plans += r.bnb_plan ? 1 : 0;
        traced_proven += r.proven ? 1 : 0;
        if (r.counts.first_incumbent_node >= 0) {
          first_inc_ms.push_back(r.first_incumbent_ms);
          first_inc_node.push_back(r.counts.first_incumbent_node);
        }
        root_gap.push_back(gap_pct(r.objective, r.root_bound));
        try {
          probe_formulation(model, c.horizon, c.options, report, log,
                            solve_span, layer, gate, c.name);
          probe_layers(model, c.options, report, log, solve_span, layer, gate,
                       c.name);
        } catch (const std::exception& e) {
          gate.fail(c.name + ": layer probe threw: " + e.what());
        }
      }
      log.add_reserved(solve_span, "bench", "solve " + c.name, pass_span,
                       solve_start, now_ms());
    }
    log.add_reserved(pass_span, "bench", "pass " + std::to_string(pass), 0,
                     pass_start, now_ms());
    (traced ? traced_pass_s : untraced_pass_s).push_back(pass_ms / 1e3);
    for (int b = 0; b < kSetupPerPass; ++b) setup_batch(false);
    // At least two passes (one of each kind when traced), so the counts
    // are compared between repetitions; then stop before overrunning.
    const double elapsed = now_ms() - measure_start;
    if (pass >= 1 && elapsed + (now_ms() - pass_start) > budget_ms) break;
  }

  // ---- deterministic counts: must repeat between passes ------------------
  bool counts_repeat = true;
  Value counts_doc = Value::object();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (counts[i].empty()) continue;
    for (const Counts& k : counts[i]) counts_repeat &= k == counts[i].front();
    const Counts& k = counts[i].front();
    Value entry = Value::object();
    entry.set("milp.nodes", Value::number(k.nodes));
    entry.set("milp.lp_iters", Value::number(k.lp_iters));
    entry.set("lp.refactorizations", Value::number(k.refactorizations));
    entry.set("milp.cuts_applied", Value::number(k.cuts_applied));
    entry.set("milp.first_incumbent_node",
              Value::number(k.first_incumbent_node));
    entry.set("repetitions",
              Value::number(static_cast<double>(counts[i].size())));
    counts_doc.set(cases[i].name, std::move(entry));
  }
  record.set("counts", counts_doc);
  record.set("counts_repeat", Value::boolean(counts_repeat));
  std::printf("deterministic counts %s: %s\n",
              counts_repeat ? "repeat" : "DIFFER BETWEEN REPETITIONS",
              counts_doc.dump().c_str());
  Value budgets = Value::object();
  budgets.set("estates_max_nodes", Value::number(kEstateNodes));
  budgets.set("dr_max_nodes", Value::number(kDrNodes));
  budgets.set("horizon_max_nodes", Value::number(kHorizonNodes));
  budgets.set("time_limit_ms", Value::number(0));
  record.set("node_budgets", std::move(budgets));

  double plan_cost = 0.0;
  std::vector<double> gaps;
  double proven = 0;
  for (const SolveResult& r : first_results) {
    plan_cost += r.objective;
    gaps.push_back(gap_pct(r.objective, r.bound));
    proven += r.proven ? 1 : 0;
  }
  // Per-solve latency: each estate's median over the passes (robust to a
  // noisy pass), then percentiles across the estates.
  std::vector<double> case_ms;
  double within_limit = 0;
  for (const std::vector<double>& w : wall_ms) {
    if (w.empty()) continue;
    case_ms.push_back(median(w));
    within_limit += case_ms.back() <= kSolveLimitMs ? 1 : 0;
  }

  if (!args.trace) {
    gate.metric("setup_s", "s", median(setup_s));
    gate.metric("solve_s", "s", median(untraced_pass_s));
    gate.metric("gap_pct", "%", mean(gaps));
    gate.metric("plan_cost", "USD/month", plan_cost);
    gate.metric("p50_ms", "ms", percentile(case_ms, 0.5));
    gate.metric("p95_ms", "ms", percentile(case_ms, 0.95));
    gate.metric("goodput_rps", "1/s", within_limit / median(untraced_pass_s));
    gate.metric("peak_rss_mb", "MB", peak_rss_mb());
    return gate.finish();
  }

  if (dropped > 0) {
    std::printf("warning: the trace recorder dropped %llu records; span "
                "self times undercount\n",
                static_cast<unsigned long long>(dropped));
  }
  record.set("trace_dropped", Value::number(static_cast<double>(dropped)));
  const double passes = static_cast<double>(traced_pass_s.size());
  const double simplex_ms = program.self_ms("simplex") / passes;
  const double pivots = traced_lp_iters / passes;
  const std::map<std::string, double> prog_layers =
      program.self_ms_by_layer();
  const auto prog_layer = [&](const char* name) {
    const auto it = prog_layers.find(name);
    return it == prog_layers.end() ? 0.0 : it->second / passes;
  };
  // Solve-derived numbers are summed over one pass; probe numbers are means
  // per call.
  std::map<std::string, double> m = layer.means();
  m["lp.factorize_ms"] = program.self_ms("simplex.factorize") / passes;
  m["lp.simplex_ms"] = simplex_ms;
  m["lp.refactorizations"] = traced_refactor / passes;
  m["lp.pivots"] = pivots;
  m["lp.bound_flips"] = traced_flips / passes;
  m["lp.us_per_pivot"] = pivots > 0 ? 1e3 * simplex_ms / pivots : 0.0;
  m["lp.self_ms"] = prog_layer("lp");
  m["milp.bnb_ms"] = traced_totals_bnb_ms / passes;
  m["milp.nodes"] = traced_nodes / passes;
  m["milp.lp_iters"] = traced_lp_iters / passes;
  m["milp.nodes_per_s"] = traced_totals_bnb_ms > 0
                              ? 1e3 * traced_nodes / traced_totals_bnb_ms
                              : 0.0;
  m["milp.first_incumbent_ms"] = median(first_inc_ms);
  m["milp.first_incumbent_node"] = median(first_inc_node);
  m["milp.bnb_plan_share"] = traced_bnb_plans / traced_solves;
  m["milp.proven_share"] = traced_proven / traced_solves;
  m["milp.root_gap_pct"] = mean(root_gap);
  m["milp.cuts_applied"] = traced_cuts / passes;
  m["milp.cut_round_ms"] = traced_cuts_ms / passes;
  m["milp.self_ms"] = prog_layer("milp");
  m["planner.self_ms"] = prog_layer("planner");
  m["telemetry.trace_overhead_pct"] =
      100.0 * (median(traced_pass_s) / median(untraced_pass_s) - 1.0);
  emit_layer_metrics(gate, m);

  Value self = Value::object();
  for (const auto& [name, ms] : log.self_ms_by_layer()) {
    self.set(name, Value::number(ms));
  }
  record.set("bench_self_ms_by_layer", std::move(self));
  Value prog = Value::object();
  for (const auto& [name, ms] : prog_layers) {
    prog.set(name, Value::number(ms / passes));
  }
  record.set("program_self_ms_by_layer_per_pass", std::move(prog));
  try {
    std::printf("chrome trace: %s\n",
                write_chrome_trace(args, log, program).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
  }
  return gate.finish();
}

}  // namespace perfbench
