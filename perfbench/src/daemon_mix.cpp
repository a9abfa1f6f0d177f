// daemon-mix: an in-process etransformd driven by open-loop HTTP arrivals
// at two fixed rates from this process.
//
// Arrivals are due on a fixed schedule (uniform spacing at the phase's
// rate) whatever the daemon does; a pool of at most nproc client threads
// takes them in order, so a stall makes later arrivals start late, and
// every latency is timed from the arrival's due time. Each client holds one
// connection at a time. The mix (seeded):
//   hit     resubmission of a pre-warmed estate (answered from the cache)
//   fresh   heuristic solve of a random 60-120 group estate
//   replan  POST /v1/replan pinning two groups of a pre-solved exact job to
//           the sites its plan gave them
//   exact   small joint-DR exact solve with a node budget, cuts off
// An arrival's latency ends when its terminal state is observed: in the POST
// response of a cache hit; otherwise the client blocks on
// /v1/jobs/<id>/events until the job is terminal (then GETs the result).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/random.h"
#include "datagen/generators.h"
#include "model/instance_io.h"
#include "model/plan.h"
#include "server/api_json.h"
#include "server/daemon.h"
#include "server/http.h"
#include "workloads.h"

namespace perfbench {

using namespace etransform;

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Solver workers of the daemon and client threads of the load generator
/// (each capped at nproc).
constexpr int kWorkers = 2;
constexpr int kMaxClients = 4;
/// The two fixed arrival rates (per second) and the share of --seconds
/// spent at the light one. Both stay under the capacity of 4 clients on
/// this mix, so every arrival is served and goodput_rps is capped at the
/// loaded rate (see README).
constexpr double kLightRate = 150.0;
constexpr double kLoadedRate = 320.0;
constexpr double kLightShare = 5.0 / 6.0;
/// solve_s is the server-side solve time of this many light-phase arrivals.
constexpr double kSolveArrivals = 1000.0;
/// Latency limit for goodput.
constexpr double kLatencyLimitMs = 100.0;
/// Arrival mix per block of kBlock arrivals, shuffled by the seed. The hit
/// and replan shares are the defaults of the repository's server load
/// benchmark (bench/bench_server_load.cpp: hit_ratio 0.4, delta_fraction
/// 0.1); 3 of its 50 fresh solves are exact solves here, the "few" that
/// keep lp/milp in the mix. Each phase offers whole blocks, so every seed
/// offers the same mix. A replan also resubmits its base first (see
/// run_arrival), so at least 50 of the 110 POSTs of a block are cache hits
/// (a replan whose pins repeat an earlier one's is a hit as well).
constexpr int kBlock = 100;
constexpr int kBlockHits = 40;
constexpr int kBlockReplans = 10;
constexpr int kBlockExact = 3;
/// Distinct pre-warmed estates the hits resubmit: an assumption, of the
/// order of the server load benchmark's pool of 6.
constexpr int kHitPool = 8;
/// The replan base: a fixed 24 x 6 estate whose exact solve and pinned
/// replans prove optimality in about 30 nodes, with a node budget that its
/// replans inherit. Some random estates of this size stay unproven within
/// the budget; their pinned replans then race the greedy heuristic, which
/// can fail the job (see README).
constexpr std::uint64_t kBaseSeed = 7;
constexpr int kBaseMaxNodes = 2000;
/// The exact arrivals: small joint-DR estates (5 groups x 3 sites) solved
/// uncached with cuts off and a node budget, alternating between two fixed
/// estates whatever the seed. They stay cheap (about 5 ms of solve), so
/// lp/milp do little here and the latency tail is not theirs alone, and
/// their gaps stay open, so gap_pct measures the budgeted search.
constexpr std::uint64_t kExactPoolSeeds[] = {1001, 1004};
constexpr int kExactMaxNodes = 3;
/// Set-ups per run (the median is reported).
constexpr int kSetupReps = 9;

enum class Kind { kHit, kFresh, kReplan, kExact };

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kHit: return "hit";
    case Kind::kFresh: return "fresh";
    case Kind::kReplan: return "replan";
    case Kind::kExact: return "exact";
  }
  return "?";
}

struct Phase {
  std::string name;
  double rate = 0.0;
  double seconds = 0.0;
  bool traced = false;
};

struct Arrival {
  Kind kind = Kind::kFresh;
  int phase = 0;
  double due_ms = 0.0;  // from the phase start
  /// Estate the result is checked against and whose request body is sent
  /// (an index into Inputs; a replan's estate is the base with its pins
  /// applied). A fresh arrival has none: its estate and body are built from
  /// its seed when it is sent.
  int estate = -1;
  std::uint64_t fresh_seed = 0;  // fresh: the estate's seed
  std::pair<int, int> pinned{-1, -1};  // replan: the two pinned groups
  // Outcome.
  bool done = false;
  bool cache_hit = false;
  /// POSTs sent for the arrival and how many the cache answered (a replan
  /// sends two).
  int posts = 0;
  int hit_posts = 0;
  bool rejected = false;
  bool exact_engine = false;
  bool proven = false;
  bool bnb_plan = false;
  /// When the terminal state was observed: the POST response of a cache
  /// hit, the end of the /events stream otherwise.
  std::chrono::steady_clock::time_point terminal;
  double latency_ms = kNaN;
  double late_ms = 0.0;
  double submit_rtt_ms = kNaN;
  double poll_rtt_ms = kNaN;
  double queue_wait_ms = kNaN;
  double solve_ms = kNaN;
  double total = 0.0;
  double gap_pct = kNaN;
  double lp_iters = 0.0;
  double nodes = 0.0;
};

/// Everything the schedule refers to, built in set-up.
struct Inputs {
  std::vector<ConsolidationInstance> estates;
  std::vector<std::string> bodies;  // per estate
  std::vector<double> hit_totals;  // per hit-pool estate (pre-warm result)
  std::vector<int> hit_pool;       // estate (and body) indices
  int replan_base = -1;            // estate (and body) index
  std::vector<int> exact_pool;     // estate (and body) indices
  std::vector<int> base_sites;     // the base job's site per group
  std::vector<Arrival> arrivals;
  std::vector<Phase> phases;
};

Value options_json(const char* engine, bool dr, int max_nodes) {
  Value options = Value::object();
  options.set("engine", Value::string(engine));
  if (dr) options.set("dr", Value::boolean(true));
  if (max_nodes > 0) options.set("max_nodes", Value::number(max_nodes));
  return options;
}

/// The request options of the fixed estates.
Value base_options() { return options_json("exact", false, kBaseMaxNodes); }
Value exact_pool_options() {
  Value options = options_json("exact", true, kExactMaxNodes);
  options.set("cuts", Value::string("off"));
  return options;
}

/// A fresh arrival's estate, built from its seed when the arrival is sent
/// and kept until its result is checked, so the schedule holds no fresh
/// estate or body.
ConsolidationInstance fresh_estate(std::uint64_t seed) {
  Rng rng(seed);
  return make_random_instance(rng, static_cast<int>(rng.uniform_int(60, 120)),
                              8, 3);
}

std::string plan_body(const ConsolidationInstance& instance, Value options,
                      bool cache = true) {
  Value body = Value::object();
  body.set("instance", Value::string(write_instance(instance)));
  body.set("options", std::move(options));
  if (!cache) body.set("cache", Value::boolean(false));
  return body.dump();
}

/// One HTTP exchange; the parsed body lands in `doc` when it is JSON.
struct Exchange {
  int status = 0;
  double rtt_ms = 0.0;
  Value doc;
  bool parsed = false;
  std::string error;
};

Exchange exchange(int port, const char* method, const std::string& target,
                  const std::string& body) {
  Exchange x;
  server::ClientResponse response;
  const double start = now_ms();
  const bool ok =
      server::http_request(port, method, target, body, &response, &x.error);
  x.rtt_ms = now_ms() - start;
  if (!ok) return x;
  x.status = response.status;
  x.parsed = json::parse(response.body, x.doc, &x.error);
  if (!x.parsed && x.error.empty()) x.error = response.body.substr(0, 200);
  return x;
}

double number_at(const Value& doc, std::initializer_list<const char*> path) {
  const Value* v = &doc;
  for (const char* key : path) {
    v = v->get(key);
    if (v == nullptr) return kNaN;
  }
  return v->is_number() ? v->num : kNaN;
}

bool bool_at(const Value& doc, const char* a, const char* b = nullptr) {
  const Value* v = doc.get(a);
  if (v != nullptr && b != nullptr) v = v->get(b);
  return v != nullptr && v->is_bool() && v->b;
}

/// Submits and waits (setup only): returns the terminal status document.
Value solve_and_wait(int port, const std::string& body) {
  const Exchange submit = exchange(port, "POST", "/v1/plan", body);
  if (submit.status != 200 && submit.status != 202) {
    throw std::runtime_error("pre-warm submit answered " +
                             std::to_string(submit.status) + " " +
                             submit.error);
  }
  if (submit.status == 200) return submit.doc;
  const std::string job =
      "/v1/jobs/" +
      std::to_string(static_cast<long long>(number_at(submit.doc, {"job"})));
  server::ClientResponse stream;
  (void)server::http_request(port, "GET", job + "/events", "", &stream);
  const Exchange status = exchange(port, "GET", job, "");
  if (!status.parsed) throw std::runtime_error("pre-warm poll failed");
  return status.doc;
}

/// Re-prices a result document client-side from its assignments and checks
/// it against the estate (check_plan) and the server's total.
void verify_result(const ConsolidationInstance& instance, const Value& result,
                   bool dr, Report& gate, const std::string& label) {
  std::map<std::string, int> group_index;
  std::map<std::string, int> site_index;
  for (int i = 0; i < instance.num_groups(); ++i) {
    group_index[instance.groups[static_cast<std::size_t>(i)].name] = i;
  }
  for (int j = 0; j < instance.num_sites(); ++j) {
    site_index[instance.sites[static_cast<std::size_t>(j)].name] = j;
  }
  Plan plan;
  plan.primary.assign(static_cast<std::size_t>(instance.num_groups()), -1);
  if (dr) plan.secondary.assign(plan.primary.size(), -1);
  const Value* assignments = result.get("assignments");
  if (!gate.check(assignments != nullptr && assignments->is_array(),
                  label + ": result has no assignments")) {
    return;
  }
  for (const Value& row : assignments->arr) {
    const Value* g = row.get("group");
    const Value* s = row.get("site");
    if (g == nullptr || s == nullptr || !group_index.count(g->str) ||
        !site_index.count(s->str)) {
      gate.fail(label + ": assignment names an unknown group or site");
      return;
    }
    const auto gi = static_cast<std::size_t>(group_index[g->str]);
    plan.primary[gi] = site_index[s->str];
    if (dr) {
      const Value* b = row.get("secondary");
      if (b == nullptr || !site_index.count(b->str)) {
        gate.fail(label + ": DR assignment without a secondary site");
        return;
      }
      plan.secondary[gi] = site_index[b->str];
    }
  }
  if (dr) {
    plan.backup_servers =
        required_backup_servers(instance, plan.primary, plan.secondary);
  }
  const std::vector<std::string> violations = check_plan(instance, plan);
  gate.check(violations.empty(),
             label + ": check_plan: " +
                 (violations.empty() ? std::string() : violations.front()));
  CostModel(instance).price_plan(plan);
  const double total = number_at(result, {"cost", "total"});
  char buf[120];
  std::snprintf(buf, sizeof buf, ": server %.6f, client re-price %.6f", total,
                plan.cost.total());
  gate.check(money_equal(total, plan.cost.total()),
             label + ": total differs from the client re-price" + buf);
  const double bound = number_at(result, {"lower_bound"});
  if (std::isfinite(bound)) {
    gate.check(bound <= total + kMoneyRelTol * std::max(1.0, total),
               label + ": lower bound above cost");
  }
}

class DaemonMix {
 public:
  DaemonMix(const Args& args, Report& gate)
      : args_(args), gate_(gate), log_(false) {}

  int run();

 private:
  Inputs build_inputs(int port_for_prewarm);
  void make_schedule(Inputs& in, std::mt19937_64& rng);
  /// POSTs `body` and waits until the job is terminal; returns its status
  /// document. Fills the arrival's per-layer timings when `measured`.
  std::optional<Value> submit_and_wait(const char* target,
                                       const std::string& body, Arrival& a,
                                       std::uint64_t span, bool measured);
  void run_arrival(Arrival& a,
                   std::chrono::steady_clock::time_point phase_start);
  /// Runs one phase; returns seconds from its first due time until its
  /// last arrival finished.
  double run_phase(int phase);

  const Args& args_;
  Report& gate_;
  SpanLog log_;
  std::unique_ptr<server::PlannerDaemon> daemon_;
  Inputs in_;
  int port_ = 0;
};

void DaemonMix::make_schedule(Inputs& in, std::mt19937_64& rng) {
  // Fixed inputs first: estate i's request body is bodies[i].
  const auto add = [&in](ConsolidationInstance instance, std::string body) {
    in.estates.push_back(std::move(instance));
    in.bodies.push_back(std::move(body));
    return static_cast<int>(in.estates.size()) - 1;
  };
  Rng pool(rng());
  for (int k = 0; k < kHitPool; ++k) {
    ConsolidationInstance estate = make_random_instance(
        pool, static_cast<int>(pool.uniform_int(60, 120)), 8, 3);
    std::string body = plan_body(estate, options_json("heuristic", false, 0));
    in.hit_pool.push_back(add(std::move(estate), std::move(body)));
  }
  {
    Rng fixed(kBaseSeed);
    ConsolidationInstance base = make_random_instance(fixed, 24, 6, 3);
    std::string body = plan_body(base, base_options());
    in.replan_base = add(std::move(base), std::move(body));
  }
  for (const std::uint64_t seed : kExactPoolSeeds) {
    Rng fixed(seed);
    ConsolidationInstance estate = make_random_instance(fixed, 5, 3, 2);
    std::string body =
        plan_body(estate, exact_pool_options(), /*cache=*/false);
    in.exact_pool.push_back(add(std::move(estate), std::move(body)));
  }

  std::vector<Kind> block;
  block.insert(block.end(), kBlockHits, Kind::kHit);
  block.insert(block.end(), kBlockReplans, Kind::kReplan);
  block.insert(block.end(), kBlockExact, Kind::kExact);
  block.resize(kBlock, Kind::kFresh);
  const ConsolidationInstance& base =
      in.estates[static_cast<std::size_t>(in.replan_base)];
  int exact_count = 0;
  for (std::size_t p = 0; p < in.phases.size(); ++p) {
    const Phase& phase = in.phases[p];
    const int count = static_cast<int>(phase.rate * phase.seconds);
    for (int i = 0; i < count; ++i) {
      if (i % kBlock == 0) std::shuffle(block.begin(), block.end(), rng);
      Arrival a;
      a.phase = static_cast<int>(p);
      a.due_ms = 1e3 * static_cast<double>(i) / phase.rate;
      a.kind = block[static_cast<std::size_t>(i % kBlock)];
      switch (a.kind) {
        case Kind::kHit:
          a.estate = in.hit_pool[static_cast<std::size_t>(
              pool.uniform_int(0, kHitPool - 1))];
          break;
        case Kind::kReplan: {
          // Two distinct seeded groups, pinned where the base plan put them
          // (once it exists): always feasible, and 276 distinct deltas.
          const int groups = base.num_groups();
          const int g1 = static_cast<int>(pool.uniform_int(0, groups - 1));
          const int g2 = static_cast<int>(
              (g1 + pool.uniform_int(1, groups - 1)) % groups);
          a.estate = in.replan_base;
          a.pinned = {g1, g2};
          break;
        }
        case Kind::kExact:
          a.estate = in.exact_pool[static_cast<std::size_t>(
              exact_count++ % static_cast<int>(in.exact_pool.size()))];
          break;
        case Kind::kFresh:
          a.fresh_seed = pool.next_u64();
          break;
      }
      in.arrivals.push_back(std::move(a));
    }
  }
}

std::vector<Phase> make_phases(const Args& args) {
  const double light_s = kLightShare * args.seconds;
  const double loaded_s = args.seconds - light_s;
  std::vector<Phase> phases;
  if (args.trace) {
    phases = {{"light-untraced", kLightRate, light_s / 2, false},
              {"light", kLightRate, light_s / 2, true},
              {"loaded", kLoadedRate, loaded_s, true}};
  } else {
    phases = {{"light", kLightRate, light_s, false},
              {"loaded", kLoadedRate, loaded_s, false}};
  }
  // Whole blocks only: stretch each phase to a multiple of kBlock arrivals.
  for (Phase& p : phases) {
    const double blocks = std::ceil(p.rate * p.seconds / kBlock);
    p.seconds = blocks * kBlock / p.rate;
  }
  return phases;
}

Inputs DaemonMix::build_inputs(int port) {
  Inputs in;
  in.phases = make_phases(args_);
  std::mt19937_64 rng(args_.seed);
  make_schedule(in, rng);

  // Pre-warm the cache: the hit pool and the exact base job replans chain
  // from.
  for (const int e : in.hit_pool) {
    const Value done =
        solve_and_wait(port, in.bodies[static_cast<std::size_t>(e)]);
    in.hit_totals.push_back(number_at(done, {"result", "cost", "total"}));
  }
  const Value base_done = solve_and_wait(
      port, in.bodies[static_cast<std::size_t>(in.replan_base)]);
  const ConsolidationInstance& base =
      in.estates[static_cast<std::size_t>(in.replan_base)];
  const Value* result = base_done.get("result");
  if (result == nullptr) throw std::runtime_error("replan base did not solve");
  verify_result(base, *result, false, gate_, "replan base");
  std::map<std::string, int> site_index;
  for (int j = 0; j < base.num_sites(); ++j) {
    site_index[base.sites[static_cast<std::size_t>(j)].name] = j;
  }
  // Assignments are listed in group order.
  for (const Value& row : result->get("assignments")->arr) {
    in.base_sites.push_back(site_index.at(row.get("site")->str));
  }
  if (static_cast<int>(in.base_sites.size()) != base.num_groups()) {
    throw std::runtime_error("replan base result lists the wrong groups");
  }
  return in;
}

std::optional<Value> DaemonMix::submit_and_wait(
    const char* target, const std::string& body, Arrival& a,
    std::uint64_t span, bool measured) {
  const std::string label = std::string(kind_name(a.kind)) + " arrival";
  const double post_start = now_ms();
  const Exchange submit = exchange(port_, "POST", target, body);
  log_.add("server", std::string("POST ") + target, span, post_start,
           now_ms());
  if (measured) a.submit_rtt_ms = submit.rtt_ms;
  a.posts += 1;
  if (submit.status == 429) {
    a.rejected = true;
    gate_.fail(label + ": 429 queue full");
    return std::nullopt;
  }
  if (submit.status == 200 && submit.parsed) {
    const bool hit = bool_at(submit.doc, "cache_hit");
    a.hit_posts += hit ? 1 : 0;
    if (measured) {
      a.terminal = std::chrono::steady_clock::now();
      a.cache_hit = hit;
    }
    return submit.doc;
  }
  if (submit.status != 202 || !submit.parsed) {
    gate_.fail(label + ": " + target + " answered " +
               std::to_string(submit.status) + " " + submit.error);
    return std::nullopt;
  }
  const double submitted = now_ms();
  const std::string job = "/v1/jobs/" + std::to_string(static_cast<long long>(
                                            number_at(submit.doc, {"job"})));
  server::ClientResponse stream;
  std::string error;
  if (!server::http_request(port_, "GET", job + "/events", "", &stream,
                            &error)) {
    gate_.fail(label + ": events stream failed: " + error);
    return std::nullopt;
  }
  const double terminal = now_ms();
  if (measured) a.terminal = std::chrono::steady_clock::now();
  log_.add("server", "GET " + job + "/events", span, submitted, terminal);
  const Exchange poll = exchange(port_, "GET", job, "");
  log_.add("server", "GET " + job, span, terminal, now_ms());
  if (poll.status != 200 || !poll.parsed) {
    gate_.fail(label + ": job poll answered " + std::to_string(poll.status));
    return std::nullopt;
  }
  if (measured) {
    a.poll_rtt_ms = poll.rtt_ms;
    a.solve_ms = number_at(poll.doc, {"solve_ms"});
    a.queue_wait_ms = terminal - submitted - a.solve_ms;
  }
  return poll.doc;
}

void DaemonMix::run_arrival(Arrival& a,
                            std::chrono::steady_clock::time_point phase_start) {
  const auto due = phase_start + std::chrono::microseconds(
                                     static_cast<long long>(1e3 * a.due_ms));
  const auto since_due = [due] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - due)
        .count();
  };
  std::optional<ConsolidationInstance> fresh;
  std::string fresh_body;
  if (a.kind == Kind::kFresh) {
    fresh = fresh_estate(a.fresh_seed);
    fresh_body = plan_body(*fresh, options_json("heuristic", false, 0));
  }
  std::this_thread::sleep_until(due);
  a.late_ms = since_due();
  const std::string label = std::string(kind_name(a.kind)) + " arrival";
  const std::uint64_t span = log_.reserve();
  const double request_start = now_ms();

  std::optional<Value> status;
  if (a.kind == Kind::kReplan) {
    // Look the base job up by resubmitting its estate (a cache hit births a
    // fresh job id), then replan against that id: the base never ages out
    // of the daemon's bounded job registry.
    const std::optional<Value> base = submit_and_wait(
        "/v1/plan", in_.bodies[static_cast<std::size_t>(in_.replan_base)], a,
        span, /*measured=*/false);
    if (!base) return;
    Value req = Value::object();
    req.set("base_job", Value::number(number_at(*base, {"job"})));
    Value pins = Value::array();
    for (const int g : {a.pinned.first, a.pinned.second}) {
      Value pin = Value::object();
      pin.set("group", Value::number(g));
      pin.set("site",
              Value::number(in_.base_sites[static_cast<std::size_t>(g)]));
      pins.push(std::move(pin));
    }
    Value delta = Value::object();
    delta.set("pin", std::move(pins));
    req.set("delta", std::move(delta));
    status = submit_and_wait("/v1/replan", req.dump(), a, span, true);
  } else {
    status = submit_and_wait(
        "/v1/plan",
        fresh ? fresh_body : in_.bodies[static_cast<std::size_t>(a.estate)],
        a, span, true);
  }
  if (!status) return;
  a.latency_ms =
      std::chrono::duration<double, std::milli>(a.terminal - due).count();
  log_.add_reserved(span, "bench", std::string("arrival ") + kind_name(a.kind),
                    0, request_start, now_ms());

  // Correctness (after the latency is taken).
  const Value* state = status->get("state");
  const Value* result = status->get("result");
  if (state == nullptr || state->str != "done" || result == nullptr) {
    const Value* error = status->get("error");
    gate_.fail(label + ": job ended " + (state ? state->str : "?") + ": " +
               (error ? error->str : ""));
    return;
  }
  a.total = number_at(*result, {"cost", "total"});
  a.lp_iters = number_at(*result, {"lp_iters"});
  a.nodes = number_at(*result, {"milp_nodes"});
  a.exact_engine = a.kind == Kind::kReplan || a.kind == Kind::kExact;
  a.proven = bool_at(*result, "proven_optimal");
  a.bnb_plan = bool_at(*result, "used_exact_solver");
  const double bound = number_at(*result, {"lower_bound"});
  if (std::isfinite(bound) && a.total > 0.0) {
    a.gap_pct = 100.0 * std::max(0.0, a.total - bound) / a.total;
  }
  if (a.kind == Kind::kFresh) {
    verify_result(*fresh, *result, false, gate_, label);
  } else if (a.kind == Kind::kReplan) {
    ConsolidationInstance pinned =
        in_.estates[static_cast<std::size_t>(a.estate)];
    for (const int g : {a.pinned.first, a.pinned.second}) {
      pinned.groups[static_cast<std::size_t>(g)].pinned_site =
          in_.base_sites[static_cast<std::size_t>(g)];
    }
    verify_result(pinned, *result, false, gate_, label);
  } else {
    verify_result(in_.estates[static_cast<std::size_t>(a.estate)], *result,
                  a.kind == Kind::kExact, gate_, label);
  }
  if (a.kind == Kind::kHit) {
    const auto it =
        std::find(in_.hit_pool.begin(), in_.hit_pool.end(), a.estate);
    const double first =
        in_.hit_totals[static_cast<std::size_t>(it - in_.hit_pool.begin())];
    gate_.check(money_equal(a.total, first),
                label + ": cached total differs from the first solve");
  }
  a.done = true;
}

double DaemonMix::run_phase(int phase) {
  std::vector<Arrival*> todo;
  for (Arrival& a : in_.arrivals) {
    if (a.phase == phase) todo.push_back(&a);
  }
  gate_.attempt(static_cast<long>(todo.size()));
  const int clients = std::max(
      1, std::min<int>(kMaxClients,
                       static_cast<int>(std::thread::hardware_concurrency())));
  std::atomic<std::size_t> next{0};
  // Start slightly in the future so every client is waiting at t=0.
  const auto start =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < todo.size(); i = next++) {
        try {
          run_arrival(*todo[i], start);
        } catch (const std::exception& e) {
          gate_.fail(std::string("arrival threw: ") + e.what());
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

int DaemonMix::run() {
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const double start = now_ms();
    daemon_.reset();
    server::DaemonOptions options;
    options.workers = std::min<int>(
        kWorkers,
        std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
    options.max_queue_depth = 64;
    auto daemon = std::make_unique<server::PlannerDaemon>(options);
    daemon->start();
    Inputs in = build_inputs(daemon->port());
    setup_s.push_back((now_ms() - start) / 1e3);
    if (rep + 1 < kSetupReps) {
      daemon->stop();
      continue;
    }
    daemon_ = std::move(daemon);
    in_ = std::move(in);
  }
  port_ = daemon_->port();

  std::vector<double> phase_wall_s(in_.phases.size(), 0.0);
  for (std::size_t p = 0; p < in_.phases.size(); ++p) {
    if (in_.phases[p].traced && (p == 0 || !in_.phases[p - 1].traced)) {
      // The daemon's fixed-size trace rings are full of set-up and untraced
      // spans by now. Every arrival has finished; give the last worker and
      // connection threads a moment to close their spans, then empty the
      // rings so they hold the traced phases.
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      daemon_->trace().clear();
    }
    log_.set_enabled(in_.phases[p].traced);
    phase_wall_s[p] = run_phase(static_cast<int>(p));
  }

  // ---- aggregate --------------------------------------------------------
  const auto phase_of = [this](const char* name) {
    for (std::size_t p = 0; p < in_.phases.size(); ++p) {
      if (in_.phases[p].name == name) return static_cast<int>(p);
    }
    return -1;
  };
  const auto latencies = [this](int phase) {
    std::vector<double> out;
    for (const Arrival& a : in_.arrivals) {
      if (a.phase == phase && a.done) out.push_back(a.latency_ms);
    }
    return out;
  };
  // plan_cost: every solve the daemon ran (cache hits repeat a pre-warmed
  // plan and are left out); gap_pct: the budgeted exact arrivals (replans
  // prove optimality, heuristic results carry no bound).
  double plan_cost = 0.0;
  std::vector<double> gaps;
  std::map<std::string, int> kinds;
  for (const Arrival& a : in_.arrivals) {
    kinds[kind_name(a.kind)] += 1;
    if (!a.done || a.cache_hit) continue;
    plan_cost += a.total;
    if (a.kind == Kind::kExact && std::isfinite(a.gap_pct)) {
      gaps.push_back(a.gap_pct);
    }
  }
  // Light-phase latency percentiles over every arrival of the phase, and
  // solve_s: the server-side plan() time of
  // kSolveArrivals arrivals, each kind's share of them times its median
  // solve time (a preempted solve moves the median little and a sum a lot;
  // the loaded phase would add CPU contention).
  struct LightFigures {
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double solve_s = 0.0;
  };
  const auto light_figures = [this](int phase) {
    std::vector<double> latency;
    std::map<Kind, std::vector<double>> solve_ms;
    for (const Arrival& a : in_.arrivals) {
      if (a.phase != phase || !a.done) continue;
      latency.push_back(a.latency_ms);
      if (std::isfinite(a.solve_ms)) solve_ms[a.kind].push_back(a.solve_ms);
    }
    double total_ms = 0.0;
    for (const auto& [kind, ms] : solve_ms) {
      total_ms += static_cast<double>(ms.size()) * median(ms);
    }
    const double scale =
        latency.empty() ? 0.0
                        : kSolveArrivals / static_cast<double>(latency.size());
    return LightFigures{percentile(latency, 0.5), percentile(latency, 0.95),
                        total_ms * scale / 1e3};
  };
  const int light = phase_of("light");
  const int loaded = phase_of("loaded");
  const LightFigures light_w = light_figures(light);
  // Goodput per second of the loaded phase's wall time (first due time to
  // last completion).
  double good = 0;
  for (const Arrival& a : in_.arrivals) {
    if (a.phase == loaded && a.done && a.latency_ms <= kLatencyLimitMs) {
      good += 1;
    }
  }
  const double loaded_s = phase_wall_s[static_cast<std::size_t>(loaded)];

  Value& record = gate_.record();
  Value mix = Value::object();
  for (const auto& [name, count] : kinds) mix.set(name, Value::number(count));
  record.set("arrival_mix", std::move(mix));
  Value phases = Value::array();
  for (std::size_t p = 0; p < in_.phases.size(); ++p) {
    const std::vector<double> lat = latencies(static_cast<int>(p));
    Value entry = Value::object();
    entry.set("name", Value::string(in_.phases[p].name));
    entry.set("rate", Value::number(in_.phases[p].rate));
    entry.set("seconds", Value::number(in_.phases[p].seconds));
    entry.set("wall_s", Value::number(phase_wall_s[p]));
    entry.set("finished", Value::number(static_cast<double>(lat.size())));
    entry.set("p50_ms", Value::number(percentile(lat, 0.5)));
    entry.set("p95_ms", Value::number(percentile(lat, 0.95)));
    entry.set("p99_ms", Value::number(percentile(lat, 0.99)));
    std::printf("phase %-15s rate %.0f/s finished %zu p50 %.3f ms p95 %.3f "
                "ms p99 %.3f ms wall %.2f s\n",
                in_.phases[p].name.c_str(), in_.phases[p].rate, lat.size(),
                percentile(lat, 0.5), percentile(lat, 0.95),
                percentile(lat, 0.99), phase_wall_s[p]);
    for (const Kind kind : {Kind::kHit, Kind::kFresh, Kind::kReplan,
                            Kind::kExact}) {
      std::vector<double> kind_lat;
      std::vector<double> kind_solve;
      for (const Arrival& a : in_.arrivals) {
        if (a.phase != static_cast<int>(p) || a.kind != kind || !a.done) {
          continue;
        }
        kind_lat.push_back(a.latency_ms);
        if (std::isfinite(a.solve_ms)) kind_solve.push_back(a.solve_ms);
      }
      Value k = Value::object();
      k.set("finished", Value::number(static_cast<double>(kind_lat.size())));
      k.set("p50_ms", Value::number(percentile(kind_lat, 0.5)));
      k.set("p99_ms", Value::number(percentile(kind_lat, 0.99)));
      k.set("solve_ms_p50", Value::number(percentile(kind_solve, 0.5)));
      std::printf("  %-7s finished %zu p50 %.3f ms p99 %.3f ms solve_ms p50 "
                  "%.3f\n",
                  kind_name(kind), kind_lat.size(), percentile(kind_lat, 0.5),
                  percentile(kind_lat, 0.99), percentile(kind_solve, 0.5));
      entry.set(kind_name(kind), std::move(k));
    }
    phases.push(std::move(entry));
  }
  record.set("phases", std::move(phases));
  Value config = Value::object();
  config.set("workers", Value::number(kWorkers));
  config.set("clients", Value::number(kMaxClients));
  config.set("latency_limit_ms", Value::number(kLatencyLimitMs));
  config.set("exact_max_nodes", Value::number(kExactMaxNodes));
  config.set("light_rate", Value::number(kLightRate));
  config.set("loaded_rate", Value::number(kLoadedRate));
  record.set("config", std::move(config));

  if (!args_.trace) {
    gate_.metric("setup_s", "s", median(setup_s));
    gate_.metric("solve_s", "s", light_w.solve_s);
    gate_.metric("gap_pct", "%", mean(gaps));
    gate_.metric("plan_cost", "USD/month", plan_cost);
    gate_.metric("p50_ms", "ms", light_w.p50_ms);
    gate_.metric("p95_ms", "ms", light_w.p95_ms);
    gate_.metric("goodput_rps", "1/s", good / loaded_s);
    gate_.metric("peak_rss_mb", "MB", peak_rss_mb());
    daemon_->stop();
    return gate_.finish();
  }

  // ---- traced run: per-layer numbers -------------------------------------
  Samples s;
  double pivots = 0, nodes = 0, exact_solves = 0, bnb_plans = 0, proven = 0;
  double posts = 0, hit_posts = 0, rejected = 0;
  for (const Arrival& a : in_.arrivals) {
    if (!in_.phases[static_cast<std::size_t>(a.phase)].traced) continue;
    rejected += a.rejected ? 1 : 0;
    posts += a.posts;
    hit_posts += a.hit_posts;
    if (!a.done) continue;
    (a.cache_hit ? s.add("hit_rtt", a.submit_rtt_ms)
                 : s.add("submit_rtt", a.submit_rtt_ms));
    if (std::isfinite(a.poll_rtt_ms)) s.add("poll_rtt", a.poll_rtt_ms);
    if (std::isfinite(a.queue_wait_ms)) s.add("queue_wait", a.queue_wait_ms);
    if (std::isfinite(a.solve_ms)) s.add("solve_ms", a.solve_ms);
    s.add("late", a.late_ms);
    if (!a.cache_hit) {
      pivots += a.lp_iters;
      nodes += a.nodes;
    }
    if (a.exact_engine && !a.cache_hit) {
      exact_solves += 1;
      bnb_plans += a.bnb_plan ? 1 : 0;
      proven += a.proven ? 1 : 0;
    }
  }

  // The benchmark's own calls into the layers, outside any timed window,
  // on estates planned locally with the options the daemon parsed from
  // their requests: the heuristic-path layers on the hit-pool estates
  // (60-120 groups, like the fresh ones), the formulation-side layers on
  // the estates the daemon solves exactly (the replan base and the exact
  // pool).
  Samples probes;
  const auto probe = [&](int e, const Value& request_options,
                         bool formulation) {
    const ConsolidationInstance& estate =
        in_.estates[static_cast<std::size_t>(e)];
    try {
      const PlannerOptions options =
          server::parse_options_json(&request_options);
      const CostModel model(estate);
      SolveContext ctx;
      const PlannerReport report =
          EtransformPlanner(options).plan(PlanInput(model), ctx);
      if (formulation) {
        probe_formulation(model, {}, options, report, log_, 0, probes, gate_,
                          "probe " + std::to_string(e));
      } else {
        probe_layers(model, options, report, log_, 0, probes, gate_,
                     "probe " + std::to_string(e));
      }
    } catch (const std::exception& ex) {
      gate_.fail(std::string("layer probe threw: ") + ex.what());
    }
  };
  for (const int e : in_.hit_pool) {
    probe(e, options_json("heuristic", false, 0), false);
  }
  probe(in_.replan_base, base_options(), true);
  for (const int e : in_.exact_pool) probe(e, exact_pool_options(), true);

  // The daemon's own spans go to the Chrome trace, but no metric comes from
  // them: its fixed-size per-thread rings overflow within seconds at these
  // rates (the drop count is recorded), so span times would undercount.
  ProgramProfile program;
  const telemetry::TraceRecorder& recorder = daemon_->trace();
  program.add_drain(recorder.to_chrome_json(), true);
  record.set("trace_dropped",
             Value::number(static_cast<double>(recorder.dropped())));

  // Counts come from the wire results, the rest from the client's clock.
  std::map<std::string, double> m = probes.means();
  m["lp.pivots"] = pivots;
  m["milp.nodes"] = nodes;
  m["milp.lp_iters"] = pivots;
  m["milp.bnb_plan_share"] = exact_solves > 0 ? bnb_plans / exact_solves : 0;
  m["milp.proven_share"] = exact_solves > 0 ? proven / exact_solves : 0;
  m["server.submit_rtt_ms.p50"] = s.pct("submit_rtt", 0.5);
  m["server.submit_rtt_ms.p99"] = s.pct("submit_rtt", 0.99);
  m["server.hit_rtt_ms.p50"] = s.pct("hit_rtt", 0.5);
  m["server.hit_rtt_ms.p99"] = s.pct("hit_rtt", 0.99);
  m["server.poll_rtt_ms.p50"] = s.pct("poll_rtt", 0.5);
  m["server.cache_hit_share"] = posts > 0 ? hit_posts / posts : 0;
  m["server.rejected_429"] = rejected;
  m["service.queue_wait_ms.p50"] = s.pct("queue_wait", 0.5);
  m["service.queue_wait_ms.p99"] = s.pct("queue_wait", 0.99);
  m["service.solve_ms.p50"] = s.pct("solve_ms", 0.5);
  m["service.solve_ms.p99"] = s.pct("solve_ms", 0.99);
  m["loadgen.late_ms.p99"] = s.pct("late", 0.99);
  m["telemetry.trace_overhead_pct"] =
      100.0 *
      (light_w.p50_ms / light_figures(phase_of("light-untraced")).p50_ms -
       1.0);
  emit_layer_metrics(gate_, m);

  Value self = Value::object();
  for (const auto& [name, ms] : log_.self_ms_by_layer()) {
    self.set(name, Value::number(ms));
  }
  record.set("bench_self_ms_by_layer", std::move(self));
  try {
    std::printf("chrome trace: %s\n",
                write_chrome_trace(args_, log_, program).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
  }
  daemon_->stop();
  return gate_.finish();
}

}  // namespace

int run_daemon_mix(const Args& args) {
  Report gate(args);
  DaemonMix mix(args, gate);
  return mix.run();
}

}  // namespace perfbench
