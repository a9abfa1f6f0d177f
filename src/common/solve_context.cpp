#include "common/solve_context.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "telemetry/trace.h"

namespace etransform {

namespace {

/// JSON has no NaN/inf; emit null for non-finite samples (absent incumbent).
void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.10g", v);
  out += buffer;
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_stats_json(std::string& out, const SolveStats& stats) {
  out += "{\"name\":";
  append_json_string(out, stats.name);
  out += ",\"wall_ms\":";
  append_json_number(out, stats.wall_ms);
  out += ",\"metrics\":{";
  for (std::size_t k = 0; k < stats.metrics.size(); ++k) {
    if (k > 0) out += ',';
    append_json_string(out, stats.metrics[k].first);
    out += ':';
    append_json_number(out, stats.metrics[k].second);
  }
  out += '}';
  if (!stats.trace.empty()) {
    out += ",\"trace\":[";
    for (std::size_t k = 0; k < stats.trace.size(); ++k) {
      if (k > 0) out += ',';
      const TracePoint& p = stats.trace[k];
      out += "{\"time_ms\":";
      append_json_number(out, p.time_ms);
      out += ",\"node\":";
      append_json_number(out, static_cast<double>(p.node));
      out += ",\"incumbent\":";
      append_json_number(out, p.incumbent);
      out += ",\"bound\":";
      append_json_number(out, p.bound);
      out += '}';
    }
    out += ']';
  }
  if (!stats.children.empty()) {
    out += ",\"children\":[";
    for (std::size_t k = 0; k < stats.children.size(); ++k) {
      if (k > 0) out += ',';
      append_stats_json(out, stats.children[k]);
    }
    out += ']';
  }
  out += '}';
}

void append_render(std::ostringstream& out, const SolveStats& stats,
                   int depth) {
  for (int k = 0; k < depth; ++k) out << "  ";
  out << stats.name << ": " << std::fixed;
  out.precision(1);
  out << stats.wall_ms << " ms";
  out.unsetf(std::ios_base::floatfield);
  out.precision(6);
  for (const auto& [key, value] : stats.metrics) {
    out << ", " << key << "=" << value;
  }
  if (!stats.trace.empty()) {
    out << ", trace=" << stats.trace.size() << " samples";
  }
  out << "\n";
  for (const SolveStats& c : stats.children) {
    append_render(out, c, depth + 1);
  }
}

}  // namespace

SolveStats& SolveStats::child(std::string_view child_name) {
  for (SolveStats& c : children) {
    if (c.name == child_name) return c;
  }
  SolveStats fresh;
  fresh.name = std::string(child_name);
  children.push_back(std::move(fresh));
  return children.back();
}

const SolveStats* SolveStats::find(std::string_view path) const {
  const SolveStats* node = this;
  while (node != nullptr && !path.empty()) {
    const std::size_t dot = path.find('.');
    const bool had_dot = dot != std::string_view::npos;
    const std::string_view segment = had_dot ? path.substr(0, dot) : path;
    path = had_dot ? path.substr(dot + 1) : std::string_view{};
    // Malformed paths ("", ".", "a..b", "a.", ".a") have an empty segment
    // somewhere; a child can never be addressed as "", so resolve to
    // not-found instead of matching by accident (a trailing dot used to
    // return the node before it).
    if (segment.empty() || (had_dot && path.empty())) return nullptr;
    const SolveStats* next = nullptr;
    for (const SolveStats& c : node->children) {
      if (c.name == segment) {
        next = &c;
        break;
      }
    }
    node = next;
  }
  return node == this ? nullptr : node;
}

void SolveStats::add(std::string_view key, double delta) {
  for (auto& [name_, value] : metrics) {
    if (name_ == key) {
      value += delta;
      return;
    }
  }
  metrics.emplace_back(std::string(key), delta);
}

double SolveStats::metric(std::string_view key) const {
  for (const auto& [name_, value] : metrics) {
    if (name_ == key) return value;
  }
  return 0.0;
}

double SolveStats::deep_metric(std::string_view key) const {
  double total = metric(key);
  for (const SolveStats& c : children) total += c.deep_metric(key);
  return total;
}

void append_trace_point(std::vector<TracePoint>& trace, TraceThinning& state,
                        const TracePoint& point, std::size_t cap) {
  const auto same_incumbent = [](double a, double b) {
    return a == b || (std::isnan(a) && std::isnan(b));
  };
  if (!state.counted) {
    // The trace may already hold earlier runs' points (same-name scopes and
    // merged stats concatenate traces); they count against the cap too.
    state.counted = true;
    for (std::size_t k = 1; k < trace.size(); ++k) {
      if (same_incumbent(trace[k].incumbent, trace[k - 1].incumbent)) {
        ++state.ordinary;
      }
    }
  }
  // An ordinary point keeps its predecessor's incumbent, so the tail that
  // was kept only as the newest point can go without changing the answer.
  if (state.tail_pending) {
    trace.pop_back();
    --state.ordinary;
  }
  state.tail_pending = false;
  if (!trace.empty() && same_incumbent(point.incumbent, trace.back().incumbent)) {
    ++state.ordinary;
    ++state.since_kept;
    state.tail_pending = state.since_kept < state.stride;
    if (!state.tail_pending) state.since_kept = 0;
  }
  trace.push_back(point);
  // Drop every second ordinary point before the newest one until at most
  // `cap` are left (earlier runs' points may need more than one pass; one
  // ordinary tail alone cannot go). Only points equal in incumbent to their
  // predecessor go, so in the thinned trace the incumbent still changes
  // exactly where it did, and every kept point is ordinary exactly when it
  // was before.
  while (state.ordinary > cap && state.ordinary > 1) {
    std::size_t kept = 1;
    std::size_t ordinary_kept = 0;
    bool drop = false;
    double previous = trace[0].incumbent;
    for (std::size_t k = 1; k < trace.size(); ++k) {
      const bool ordinary = same_incumbent(trace[k].incumbent, previous);
      previous = trace[k].incumbent;
      if (ordinary && k + 1 < trace.size()) {
        drop = !drop;
        if (drop) continue;
      }
      if (ordinary) ++ordinary_kept;
      trace[kept++] = trace[k];
    }
    trace.resize(kept);
    state.ordinary = ordinary_kept;
    state.stride *= 2;
  }
}

void SolveStats::merge_from(const SolveStats& other) {
  wall_ms += other.wall_ms;
  for (const auto& [key, value] : other.metrics) add(key, value);
  trace.insert(trace.end(), other.trace.begin(), other.trace.end());
  for (const SolveStats& c : other.children) child(c.name).merge_from(c);
}

std::string SolveStats::to_json() const {
  std::string out;
  append_stats_json(out, *this);
  return out;
}

std::string SolveStats::render() const {
  std::ostringstream out;
  append_render(out, *this, 0);
  return out.str();
}

SolveScope::SolveScope(SolveContext& ctx, std::string_view name)
    : ctx_(ctx),
      node_(&ctx.current_->child(name)),
      parent_(ctx.current_),
      prev_open_(ctx.open_scope_) {
  ctx_.current_ = node_;
  ctx_.open_scope_ = this;
  if (telemetry::TraceRecorder* rec = ctx_.trace_) {
    rec->begin("solve", node_->name);
  }
}

void SolveScope::close() {
  if (closed_) return;
  // Flush still-open child scopes innermost-out so their wall time lands in
  // the tree before this node records its own.
  while (ctx_.open_scope_ != nullptr && ctx_.open_scope_ != this) {
    ctx_.open_scope_->close();
  }
  closed_ = true;
  node_->wall_ms += stopwatch_.elapsed_ms();
  ctx_.current_ = parent_;
  ctx_.open_scope_ = prev_open_;
  if (telemetry::TraceRecorder* rec = ctx_.trace_) {
    rec->end("solve", node_->name);
  }
}

}  // namespace etransform
