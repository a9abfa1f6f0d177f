// SolveContext: the unified observability & control layer for the solver
// stack (simplex -> presolve -> branch-and-bound -> planner).
//
// One SolveContext is threaded by reference through every solver entry
// point. It carries three concerns:
//
//  * control  — a monotonic Deadline plus a cooperative cancellation token.
//    Solvers poll should_stop() at bounded intervals (the simplex checks
//    every refactor_interval pivots, branch-and-bound before every node) and
//    unwind with kTimeLimit / kCancelled statuses, returning whatever
//    partial result they hold.
//  * events   — optional callbacks fired at structural moments of a solve
//    (simplex phase completion, presolve reductions, B&B nodes, incumbent
//    and bound updates). Unset callbacks cost one branch per event site.
//    Callbacks may call request_cancel() to stop the solve from inside.
//  * stats    — a hierarchical SolveStats tree (per-phase wall time plus
//    named counters and an incumbent/bound trace) built via SolveScope
//    RAII nodes. Layers aggregate into shared children ("simplex" under
//    "branch_and_bound"), so a 10k-node MILP produces a handful of tree
//    nodes, not 10k.
//
// A default-constructed SolveContext has no deadline, no cancellation, and
// no callbacks: the legacy signatures forward through one, so the overhead
// of the redesign on the hot path is a few predictable branches.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stopwatch.h"

namespace etransform::telemetry {
class TraceRecorder;
class MetricsRegistry;
}  // namespace etransform::telemetry

namespace etransform {

class SolveProgress;

// ---------------------------------------------------------------------------
// Event payloads. Plain value types on purpose: common/ must not depend on
// lp/ or milp/, and payloads must stay cheap to build even when unused.

/// Fired when a simplex phase (1 = feasibility, 2 = optimality) finishes.
struct SimplexPhaseEvent {
  int phase = 0;            ///< 1 or 2.
  int pivots = 0;           ///< Pivots spent in this phase.
  double objective = 0.0;   ///< Internal phase objective at completion.
};

/// Fired for each presolve reduction as it is applied.
struct PresolveReductionEvent {
  /// Reduction rule: "fix_variable", "empty_row", or "singleton_row".
  const char* rule = "";
  int rows_removed = 0;  ///< Rows removed by this reduction.
  int vars_removed = 0;  ///< Variables substituted out by this reduction.
};

/// Fired after each branch-and-bound node is processed.
struct NodeEvent {
  long long node = 0;        ///< 1-based node counter.
  int depth = 0;             ///< Depth in the B&B tree (root = 0).
  double relaxation = 0.0;   ///< Node LP bound (model sense); NaN if LP failed.
  double best_bound = 0.0;   ///< Global dual bound (model sense).
  double incumbent = 0.0;    ///< Incumbent objective; NaN when none yet.
  int open_nodes = 0;        ///< Nodes still open after this one.
};

/// Fired when branch-and-bound finds a new incumbent.
struct IncumbentEvent {
  long long node = 0;       ///< Node at which the incumbent was found.
  double objective = 0.0;   ///< Incumbent objective (model sense).
  double time_ms = 0.0;     ///< Context wall time at the improvement.
};

/// Fired when the global dual bound improves.
struct BoundEvent {
  long long node = 0;      ///< Node count when the bound moved.
  double bound = 0.0;      ///< New global bound (model sense).
  double incumbent = 0.0;  ///< Current incumbent; NaN when none yet.
};

/// The optional callback set. Check before firing:
/// `if (ctx.events.on_node) ctx.events.on_node(e);`
struct SolveEvents {
  std::function<void(const SimplexPhaseEvent&)> on_simplex_phase;
  std::function<void(const PresolveReductionEvent&)> on_presolve_reduction;
  std::function<void(const NodeEvent&)> on_node;
  std::function<void(const IncumbentEvent&)> on_incumbent;
  std::function<void(const BoundEvent&)> on_bound_improvement;
};

// ---------------------------------------------------------------------------
// Stats tree.

/// One sample of the incumbent/bound trace kept by branch-and-bound.
struct TracePoint {
  double time_ms = 0.0;   ///< Context wall time of the sample.
  long long node = 0;     ///< Node count at the sample.
  double incumbent = 0.0; ///< Incumbent objective; NaN when none yet.
  double bound = 0.0;     ///< Global dual bound.
};

/// Sampling state of one trace kept by append_trace_point.
struct TraceThinning {
  std::size_t stride = 1;      ///< Keep every stride-th ordinary point.
  std::size_t since_kept = 0;  ///< Ordinary points since one was kept.
  std::size_t ordinary = 0;    ///< Ordinary points in the trace.
  bool tail_pending = false;   ///< The tail is kept only as the newest point.
  bool counted = false;        ///< `ordinary` includes the trace's old points.
};

/// Appends `point` to an incumbent/bound trace of a whole run, which may
/// follow earlier runs' points. An ordinary point (same incumbent as the
/// one before it) is one of at most `cap` in the whole trace:
/// past that the trace is thinned, not cut off. Every second ordinary point
/// goes and the stride of later ones doubles, so the kept points stay
/// spread evenly over the run. The first point, the newest point and every
/// point where the incumbent changed are always kept.
void append_trace_point(std::vector<TracePoint>& trace, TraceThinning& state,
                        const TracePoint& point, std::size_t cap);

/// A node of the hierarchical solve-statistics tree: wall time, ordered
/// named counters, an optional incumbent/bound trace, and children.
/// Metrics accumulate (add() sums), so repeated scopes with the same name
/// aggregate instead of growing the tree.
struct SolveStats {
  std::string name = "solve";
  double wall_ms = 0.0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<TracePoint> trace;
  std::vector<SolveStats> children;

  /// Finds or creates the child named `child_name`.
  SolveStats& child(std::string_view child_name);

  /// The descendant at `path`, or nullptr. A plain name searches this node's
  /// direct children; a dotted path ("branch_and_bound.simplex") walks one
  /// level per segment.
  [[nodiscard]] const SolveStats* find(std::string_view path) const;

  /// Adds `delta` to the metric named `key` (creating it at 0 first).
  void add(std::string_view key, double delta);

  /// Current value of the metric named `key` (0 when absent).
  [[nodiscard]] double metric(std::string_view key) const;

  /// Sum of `key` over this node and all descendants.
  [[nodiscard]] double deep_metric(std::string_view key) const;

  /// Folds `other` into this node: wall time and metrics add, trace points
  /// append (capped by the caller's policy, not here), and children merge
  /// recursively by name. Used by the parallel tree search to fold each
  /// worker's private stats tree back into the solve's "branch_and_bound"
  /// subtree once the workers have joined.
  void merge_from(const SolveStats& other);

  /// Machine-readable JSON object for the subtree (stable key order).
  [[nodiscard]] std::string to_json() const;

  /// Human-readable indented tree for report output.
  [[nodiscard]] std::string render() const;
};

// ---------------------------------------------------------------------------
// The context.

class SolveScope;

class SolveContext {
 public:
  SolveContext() = default;
  explicit SolveContext(Deadline deadline) : deadline_(deadline) {}

  // The cancellation token is an atomic; the context is identity, not value.
  SolveContext(const SolveContext&) = delete;
  SolveContext& operator=(const SolveContext&) = delete;

  /// The active deadline (unlimited by default).
  [[nodiscard]] const Deadline& deadline() const { return deadline_; }
  void set_deadline(Deadline deadline) { deadline_ = deadline; }
  /// Convenience: expire `ms` milliseconds from now.
  void set_time_limit_ms(double ms) { deadline_ = Deadline::after_ms(ms); }

  /// Requests cooperative cancellation. Safe to call from any thread or
  /// from inside an event callback; solvers notice at their next poll.
  void request_cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    const std::atomic<bool>* parent =
        parent_cancel_.load(std::memory_order_relaxed);
    return parent != nullptr && parent->load(std::memory_order_relaxed);
  }

  /// Links this context's cancellation to `parent`: cancelled() also returns
  /// true once the parent context was cancelled. The parallel tree search
  /// gives each worker its own context (stats scopes are stack-like and not
  /// thread-safe) while a single request_cancel() on the solve's context
  /// still stops every worker cooperatively. `parent` must outlive this
  /// context. Safe to call concurrently with cancelled().
  void link_cancel_to(const SolveContext& parent) {
    parent_cancel_.store(&parent.cancelled_, std::memory_order_relaxed);
  }

  /// True when a solver should unwind: cancellation beats the deadline
  /// (callers asked for it explicitly).
  [[nodiscard]] bool should_stop() const {
    return cancelled() || deadline_.expired();
  }

  /// Milliseconds since the context was created.
  [[nodiscard]] double elapsed_ms() const { return stopwatch_.elapsed_ms(); }

  /// Event callbacks (all optional).
  SolveEvents events;

  /// Root of the stats tree.
  [[nodiscard]] SolveStats& stats() { return root_; }
  [[nodiscard]] const SolveStats& stats() const { return root_; }

  /// The stats node scopes currently write into (the root outside any
  /// SolveScope).
  [[nodiscard]] SolveStats& current_stats() { return *current_; }

  /// Optional trace recorder: when set, every SolveScope emits a trace span
  /// and solver instrumentation points record phase/factorization spans.
  /// The recorder must outlive the context. Null by default (one branch per
  /// instrumentation site, mirroring the unset-callback cost of events).
  [[nodiscard]] telemetry::TraceRecorder* trace() const { return trace_; }
  void set_trace(telemetry::TraceRecorder* trace) { trace_ = trace; }

  /// Optional metrics registry: when set, solvers bump process-wide counters
  /// (pivots, refactorizations) alongside the per-solve stats tree. The
  /// registry must outlive the context. Null by default.
  [[nodiscard]] telemetry::MetricsRegistry* metrics() const { return metrics_; }
  void set_metrics(telemetry::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Request attribution: the trace id this solve runs under (0 = none).
  /// Propagated with trace()/metrics() into per-worker contexts (the
  /// link_cancel_to pattern) and bound onto worker threads so every span,
  /// event, and log line of a multiplexed daemon is per-request filterable.
  [[nodiscard]] std::uint64_t trace_id() const { return trace_id_; }
  void set_trace_id(std::uint64_t trace_id) { trace_id_ = trace_id; }

  /// Optional live progress ring: when set, branch-and-bound publishes
  /// incumbent/bound/gap/node samples into it as the search runs (the
  /// daemon's /v1/jobs/<id>/progress endpoint snapshots it concurrently).
  /// Must outlive the context. Null by default — one branch per site.
  [[nodiscard]] SolveProgress* progress() const { return progress_; }
  void set_progress(SolveProgress* progress) { progress_ = progress; }

 private:
  friend class SolveScope;

  Deadline deadline_;
  std::atomic<bool> cancelled_{false};
  std::atomic<const std::atomic<bool>*> parent_cancel_{nullptr};
  Stopwatch stopwatch_;
  SolveStats root_;
  SolveStats* current_ = &root_;
  SolveScope* open_scope_ = nullptr;
  telemetry::TraceRecorder* trace_ = nullptr;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  std::uint64_t trace_id_ = 0;
  SolveProgress* progress_ = nullptr;
};

/// RAII stats scope: on construction finds-or-creates `name` under the
/// context's current node and makes it current; on destruction (or an
/// explicit close()) adds the elapsed wall time and restores the parent.
/// When the context has a trace recorder attached, the scope also emits a
/// matching begin/end trace span (category "solve").
///
/// Scopes must nest like stack frames. Only the innermost (current) node's
/// children may grow, so SolveStats pointers held by enclosing scopes stay
/// valid. Closing a scope while children are still open closes the children
/// first (innermost-out), so their wall time lands in the tree before the
/// parent's does.
class SolveScope {
 public:
  SolveScope(SolveContext& ctx, std::string_view name);

  SolveScope(const SolveScope&) = delete;
  SolveScope& operator=(const SolveScope&) = delete;

  ~SolveScope() { close(); }

  /// Ends the scope early (idempotent): flushes any still-open child scopes,
  /// records wall time, restores the parent.
  void close();

  /// The stats node this scope writes into.
  [[nodiscard]] SolveStats& stats() { return *node_; }

 private:
  SolveContext& ctx_;
  SolveStats* node_;
  SolveStats* parent_;
  SolveScope* prev_open_;
  Stopwatch stopwatch_;
  bool closed_ = false;
};

/// RAII deadline tightener: within the guard's lifetime the context deadline
/// is the earlier of its current deadline and `limit`; the original deadline
/// is restored on destruction. Used by branch-and-bound to honor
/// SearchOptions::time_limit_ms without the caller losing its own deadline.
class DeadlineGuard {
 public:
  DeadlineGuard(SolveContext& ctx, Deadline limit)
      : ctx_(ctx), saved_(ctx.deadline()) {
    ctx_.set_deadline(Deadline::earliest(saved_, limit));
  }

  DeadlineGuard(const DeadlineGuard&) = delete;
  DeadlineGuard& operator=(const DeadlineGuard&) = delete;

  ~DeadlineGuard() { ctx_.set_deadline(saved_); }

 private:
  SolveContext& ctx_;
  Deadline saved_;
};

}  // namespace etransform
