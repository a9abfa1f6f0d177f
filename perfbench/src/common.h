// Shared pieces of the benchmark harness: arguments, statistics, the
// correctness gate and result printer, the benchmark's own span log, the
// analysis of the program's TraceRecorder spans, and the layer probes (the
// benchmark's timed calls into each module's public functions).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "cost/cost_model.h"
#include "model/horizon.h"
#include "planner/etransform_planner.h"

namespace perfbench {

using etransform::json::Value;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Where the run record and the Chrome trace are written (relative to the
  /// checkout root).
  std::string out_dir = ".bench_out";
  /// Run metadata handed in by run.py (the commit reads "unknown" outside
  /// a git checkout).
  std::string build_type = "unknown";
  std::string compiler = "unknown";
  std::string commit = "unknown";
};

/// Milliseconds on the steady clock since the process started.
[[nodiscard]] double now_ms();

/// Linear-interpolation percentile (p in [0, 1]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mean(const std::vector<double>& values);

/// Peak resident set size of this process in MB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Named sample lists: the raw material of every metric.
class Samples {
 public:
  void add(const std::string& name, double value);
  [[nodiscard]] std::vector<double> get(const std::string& name) const;
  [[nodiscard]] double pct(const std::string& name, double p) const;
  /// Mean of every sample list, keyed by name.
  [[nodiscard]] std::map<std::string, double> means() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> values_;
};

/// Correctness gate and result printer. Every failed check increments
/// `failed`; any failure makes the run exit non-zero.
class Report {
 public:
  explicit Report(const Args& args);

  void attempt(long count = 1);
  /// Records a failed check (also printed to stderr). Thread-safe.
  void fail(const std::string& what);
  /// fail(what) unless ok; returns ok.
  bool check(bool ok, const std::string& what);

  void metric(const std::string& name, const std::string& unit, double value);
  /// Free-form run record, written to <out_dir>/<workload>-seed<N>-trace<T>.json.
  Value& record() { return record_; }

  /// Prints every metric with its unit, writes the run record, prints the
  /// result line; returns the process exit code.
  int finish();

 private:
  const Args& args_;
  std::mutex mu_;
  long attempted_ = 0;
  long failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::pair<std::string, double>>>
      metrics_;
  Value record_ = Value::object();
};

/// Spans the benchmark records around its own calls into each layer. Each
/// solve and each HTTP request gets its own id; children name their parent.
/// Disabled logs record nothing (the untraced runs).
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_.load(); }
  /// Switches recording between phases (no span may be open).
  void set_enabled(bool enabled) { enabled_.store(enabled); }

  /// Records a finished span; returns its id (0 when disabled).
  std::uint64_t add(const char* layer, const std::string& name,
                    std::uint64_t parent, double start_ms, double end_ms);
  /// Reserves an id for a span whose children close before it does.
  std::uint64_t reserve();
  void add_reserved(std::uint64_t id, const char* layer,
                    const std::string& name, std::uint64_t parent,
                    double start_ms, double end_ms);

  /// Self time per layer: each span's duration minus its children's.
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;
  /// Appends the spans as Chrome trace events (pid 1) to `events`.
  void append_chrome(Value& events) const;

 private:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    const char* layer = "";
    std::string name;
    double start_ms = 0.0;
    double end_ms = 0.0;
    std::uint64_t tid = 0;
  };
  std::atomic<bool> enabled_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// RAII timer: records one span (when the log is enabled) on stop() or
/// destruction; stop() returns the duration either way.
class Timed {
 public:
  Timed(SpanLog& log, const char* layer, std::string name,
        std::uint64_t parent = 0);
  ~Timed();
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  /// Ends the span now; returns its duration in ms.
  double stop();

 private:
  SpanLog& log_;
  const char* layer_;
  std::string name_;
  std::uint64_t parent_;
  std::uint64_t id_;
  double start_ms_;
  bool stopped_ = false;
};

/// Self time per span name of a TraceRecorder Chrome-trace drain, plus the
/// raw events (kept for the written trace up to a cap).
class ProgramProfile {
 public:
  /// Folds one drain in. `keep` copies its events into the written trace
  /// (pid 2) while under the event cap.
  void add_drain(const std::string& chrome_json, bool keep);
  [[nodiscard]] double self_ms(const std::string& name_prefix) const;
  /// Self time summed per layer (simplex.* / presolve.* -> lp, B&B scopes
  /// -> milp, planner scopes -> planner, ...).
  [[nodiscard]] std::map<std::string, double> self_ms_by_layer() const;
  void append_chrome(Value& events) const;

 private:
  std::map<std::string, double> self_ms_;
  std::vector<Value> kept_;
};

/// Writes the benchmark's spans and the kept program spans as one Chrome
/// trace file. Returns the path written.
std::string write_chrome_trace(const Args& args, const SpanLog& log,
                               const ProgramProfile& program);

/// Times the benchmark's own calls into the modules' public functions that
/// every planner path uses, on one solved input: .etf parse, greedy seed,
/// local search, re-pricing, and result JSON dump/parse. Adds one sample per
/// metric (the per-layer metric names).
void probe_layers(const etransform::CostModel& model,
                  const etransform::PlannerOptions& options,
                  const etransform::PlannerReport& report, SpanLog& log,
                  std::uint64_t parent, Samples& samples, Report& gate,
                  const std::string& label);

/// The formulation side of an exact solve. planner.formulation_ms is the
/// solve's own "formulation" scope. The planner does not hand out the
/// formulation it built, so the probe rebuilds it for each backup sizing
/// the exact path can choose and keeps the one with the scope's variable
/// and row counts; no match is a failed check. On that formulation it times
/// presolve and the root LP (checked to be at most the plan cost) and the
/// decode of the returned plan (checked to give the same placement back).
void probe_formulation(const etransform::CostModel& model,
                       const etransform::PlanningHorizon& horizon,
                       const etransform::PlannerOptions& options,
                       const etransform::PlannerReport& report, SpanLog& log,
                       std::uint64_t parent, Samples& samples, Report& gate,
                       const std::string& label);

/// The first scope named `name` in a stats tree (depth first), or nullptr.
[[nodiscard]] const etransform::SolveStats* find_scope(
    const etransform::SolveStats& stats, const std::string& name);

/// Correctness gate for one planner result: check_plan on every period,
/// total equals the CostModel re-price (horizon total for multi-period),
/// lower bound <= cost.
void check_report(const etransform::ConsolidationInstance& instance,
                    const etransform::PlanningHorizon& horizon,
                    const etransform::PlannerReport& report, double bound,
                    Report& gate, const std::string& label);

/// Emits every per-layer metric of BENCHMARK.json, in its order and with
/// its unit. A name missing from `values` is a layer this workload does not
/// exercise and reads 0.
void emit_layer_metrics(Report& gate,
                        const std::map<std::string, double>& values);

/// Relative tolerance used when comparing money amounts.
inline constexpr double kMoneyRelTol = 1e-6;
[[nodiscard]] bool money_equal(double a, double b);

}  // namespace perfbench
