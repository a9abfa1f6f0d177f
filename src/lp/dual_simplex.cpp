// Bound-flipping-ratio-test (BFRT) dual simplex — the reoptimization loop
// of RevisedSimplex. Shares the sparse Markowitz LU / FTRAN / BTRAN / eta
// machinery in lp/basis.* with the primal loop (simplex.cpp).
//
// Why a dual loop at all: branch-and-bound children and cut rounds restart
// from a parent-optimal basis whose duals are still feasible — only the
// primal values are out of bounds (a tightened branch bound, or a freshly
// violated cut row whose slack enters basic and infeasible). The dual
// simplex walks straight back to optimality without the composite phase-1
// detour, typically in a handful of pivots.
//
// Loop shape per pivot:
//  * Leaving row r: the basic variable with the largest bound violation
//    (Dantzig-style dual pricing); sigma = +1 when it sits above its upper
//    bound (it will leave at upper), -1 below its lower bound.
//  * Pivot row: rho = B^-T e_r (one btran), alpha_j = rho . A_j over the
//    nonbasic columns. Row-wise PRICE scatters rho_i A_i. from the
//    PreparedLp row copy over the rows where rho_i != 0, so it reads only
//    the entries under rho's nonzeros. It sums each alpha_j's nonzero terms
//    in ascending row order, as a column-by-column dot product would, so
//    the pivot row is bitwise the same as the column loop's.
//  * BFRT: breakpoints (nonbasic j whose reduced cost d_j hits zero at dual
//    step t_j = d_j / (sigma alpha_j)) are visited in ratio order; boxed
//    breakpoints whose full-range flip still leaves the row infeasible are
//    flipped (slope -= range * |alpha_j|) instead of entering, letting one
//    dual pivot pass many small breakpoints. The first breakpoint that
//    absorbs the remaining slope enters the basis. The walk reads a handful
//    of breakpoints, so it picks them by repeated selection instead of
//    sorting them all. std::sort is not stable and the pivots depend on its
//    tie order, so when two breakpoints the walk reads share a ratio, when
//    there are few breakpoints or when the walk runs long, it sorts them
//    from ascending-j order after all.
//  * Harris-style widening: among breakpoints whose selection keeps every
//    other candidate's reduced cost within dtol_ of feasibility, the
//    largest |alpha| pivot is preferred for stability.
//  * Anti-cycling: a run of degenerate (zero-step) dual pivots triggers a
//    deterministic cost-shift perturbation that pushes every nonbasic
//    reduced cost strictly inside its half-space; shifts live only in
//    shifted_cost_/d_, so the primal phase-2 cleanup that certifies the
//    final basis always prices against the true costs.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "lp/simplex_core.h"

namespace etransform::lp::detail {

namespace {
/// Dual steps below this count as degenerate pivots.
constexpr double kDegenerateStep = 1e-10;
/// Below this many breakpoints a full sort costs no more than selection.
constexpr std::size_t kSelectMinBreakpoints = 8;
/// Selection passes (each reads every breakpoint) before a long walk sorts.
constexpr int kSelectPasses = 4;
/// Harris-window breakpoints besides the entering one before the walk sorts.
constexpr int kMaxHarrisWindow = 8;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Zeroes the previous pivot row (alpha is zero outside nz) and sizes the
/// dense scratch for `n` columns.
void reset_pivot_row(int n, PivotRow& row) {
  if (row.alpha.size() != static_cast<std::size_t>(n)) {
    row.alpha.assign(static_cast<std::size_t>(n), 0.0);
    row.touched.assign((static_cast<std::size_t>(n) + 63) / 64, 0);
  } else {
    for (const int j : row.nz) row.alpha[static_cast<std::size_t>(j)] = 0.0;
  }
  row.nz.clear();
}
}  // namespace

void price_columns(const PreparedLp& prep, const std::vector<double>& rho,
                   const std::vector<BasisVarStatus>& status, PivotRow& row) {
  const int n = prep.num_columns();
  reset_pivot_row(n, row);
  for (int j = 0; j < n; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    if (status[ju] == BasisVarStatus::kBasic) continue;
    const SparseColumn& col = prep.columns[ju];
    double a = 0.0;
    for (std::size_t e = 0; e < col.rows.size(); ++e) {
      a += rho[static_cast<std::size_t>(col.rows[e])] * col.coefs[e];
    }
    if (std::abs(a) <= kAlphaZeroTol) continue;
    row.alpha[ju] = a;
    row.nz.push_back(j);
  }
}

void price_rows(const PreparedLp& prep, const std::vector<double>& rho,
                const std::vector<BasisVarStatus>& status, PivotRow& row) {
  reset_pivot_row(prep.num_columns(), row);
  // A term with rho_i == 0 adds a zero, which never changes a sum that
  // starts at +0.0, so skipping those rows leaves every alpha_j bitwise
  // equal to the column loop's.
  for (int i = 0; i < prep.num_rows(); ++i) {
    const double r = rho[static_cast<std::size_t>(i)];
    if (r == 0.0) continue;
    const auto end = static_cast<std::size_t>(
        prep.row_start[static_cast<std::size_t>(i) + 1]);
    for (auto p = static_cast<std::size_t>(
             prep.row_start[static_cast<std::size_t>(i)]);
         p < end; ++p) {
      const auto ju = static_cast<std::size_t>(prep.row_cols[p]);
      row.alpha[ju] += r * prep.row_coefs[p];
      row.touched[ju >> 6] |= std::uint64_t{1} << (ju & 63);
    }
  }
  // Read the touched columns back in ascending j, as the column loop lists
  // them: keep the nonbasic entries above the tolerance, clear the rest and
  // the flags.
  for (std::size_t w = 0; w < row.touched.size(); ++w) {
    std::uint64_t bits = row.touched[w];
    row.touched[w] = 0;
    for (; bits != 0; bits &= bits - 1) {
      const std::size_t ju =
          w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      if (status[ju] != BasisVarStatus::kBasic &&
          std::abs(row.alpha[ju]) > kAlphaZeroTol) {
        row.nz.push_back(static_cast<int>(ju));
      } else {
        row.alpha[ju] = 0.0;
      }
    }
  }
}

int bfrt_sorted(std::vector<DualBreakpoint>& bps, double slope, double ftol,
                double dtol, std::vector<int>& flips) {
  flips.clear();
  std::sort(bps.begin(), bps.end(),
            [](const DualBreakpoint& a, const DualBreakpoint& b) {
              return a.ratio < b.ratio;
            });
  // Bound-flipping walk: while the row's infeasibility survives flipping a
  // boxed breakpoint across its whole range (an unboxed one drops +inf),
  // flip it and keep walking; the entering variable is the breakpoint that
  // absorbs the remaining slope.
  std::size_t enter_k = bps.size();
  for (std::size_t k = 0; k < bps.size(); ++k) {
    const double drop = bps[k].range * bps[k].abs_alpha;
    if (slope - drop > ftol) {
      slope -= drop;
      flips.push_back(bps[k].j);
      continue;
    }
    enter_k = k;
    break;
  }
  // All breakpoints flipped away with infeasibility left: the dual is
  // unbounded along this ray.
  if (enter_k == bps.size()) return -1;

  // Harris-style widening: any breakpoint with ratio <= t_accept keeps
  // every other candidate's reduced cost within dtol of feasibility; among
  // those, the largest |alpha| makes the most stable pivot.
  double t_accept = kInf;
  for (std::size_t k = enter_k; k < bps.size(); ++k) {
    t_accept = std::min(t_accept, bps[k].ratio + dtol / bps[k].abs_alpha);
  }
  std::size_t choice = enter_k;
  for (std::size_t k = enter_k + 1; k < bps.size() && bps[k].ratio <= t_accept;
       ++k) {
    if (bps[k].abs_alpha > bps[choice].abs_alpha) choice = k;
  }
  return bps[choice].j;
}

int bfrt_select(std::vector<DualBreakpoint>& bps, double slope, double ftol,
                double dtol, std::vector<int>& flips) {
  const auto sort_walk = [&, slope] {
    return bfrt_sorted(bps, slope, ftol, dtol, flips);
  };
  if (bps.size() < kSelectMinBreakpoints) return sort_walk();

  // With distinct ratios among the breakpoints it reads, the walk's order
  // is the sorted order whatever the input order, so the next breakpoint
  // is simply the smallest ratio above the last flipped one.
  flips.clear();
  double last = -kInf;
  std::size_t enter = bps.size();
  for (int pass = 0; enter == bps.size(); ++pass) {
    if (pass == kSelectPasses) return sort_walk();  // a long walk
    std::size_t best = bps.size();
    double best_ratio = kInf;
    bool tie = false;
    for (std::size_t k = 0; k < bps.size(); ++k) {
      const double ratio = bps[k].ratio;
      if (ratio <= last) continue;
      if (ratio < best_ratio) {
        best_ratio = ratio;
        best = k;
        tie = false;
      } else if (ratio == best_ratio) {
        tie = true;
      }
    }
    if (tie) return sort_walk();
    if (best == bps.size()) return -1;  // every breakpoint flipped
    const double drop = bps[best].range * bps[best].abs_alpha;
    if (slope - drop > ftol) {
      slope -= drop;
      flips.push_back(bps[best].j);
      last = best_ratio;
    } else {
      enter = best;
    }
  }

  // Harris pass. t_accept is a minimum over the unwalked breakpoints (ratio
  // above `last`), so it needs no order; it is at most the entering one's
  // own bound t_cap, so one pass also collects the window candidates.
  const DualBreakpoint& in = bps[enter];
  const double t_cap = in.ratio + dtol / in.abs_alpha;
  double t_accept = kInf;
  std::size_t window[kMaxHarrisWindow];
  int width = 0;
  for (std::size_t k = 0; k < bps.size(); ++k) {
    if (bps[k].ratio <= last) continue;
    t_accept = std::min(t_accept, bps[k].ratio + dtol / bps[k].abs_alpha);
    if (k != enter && bps[k].ratio <= t_cap) {
      if (width == kMaxHarrisWindow) return sort_walk();
      window[width++] = k;
    }
  }
  // In ratio order the walk keeps the first largest |alpha|: the largest
  // |alpha| in the window, the smaller ratio on equal |alpha|. Only two
  // window breakpoints equal in both ratio and |alpha| leave that to the
  // sort's order (none shares the entering ratio, or the selection pass
  // would have seen the tie).
  std::size_t choice = enter;
  for (int a = 0; a < width; ++a) {
    const DualBreakpoint& bp = bps[window[a]];
    if (bp.ratio > t_accept) continue;
    for (int b = a + 1; b < width; ++b) {
      if (bps[window[b]].ratio == bp.ratio &&
          bps[window[b]].abs_alpha == bp.abs_alpha) {
        return sort_walk();
      }
    }
    const DualBreakpoint& best = bps[choice];
    if (bp.abs_alpha > best.abs_alpha ||
        (bp.abs_alpha == best.abs_alpha && bp.ratio < best.ratio)) {
      choice = window[a];
    }
  }
  return bps[choice].j;
}

void RevisedSimplex::dual_refresh() {
  y_.assign(static_cast<std::size_t>(m_), 0.0);
  for (int k = 0; k < m_; ++k) {
    y_[static_cast<std::size_t>(k)] = shifted_cost_[static_cast<std::size_t>(
        basis_[static_cast<std::size_t>(k)])];
  }
  engine_->btran(y_);
  d_.assign(static_cast<std::size_t>(n_), 0.0);
  for (int j = 0; j < n_; ++j) {
    if (status_[static_cast<std::size_t>(j)] == BasisVarStatus::kBasic) {
      continue;
    }
    double d = shifted_cost_[static_cast<std::size_t>(j)];
    const SparseColumn& col = prep_.columns[static_cast<std::size_t>(j)];
    for (std::size_t e = 0; e < col.rows.size(); ++e) {
      d -= y_[static_cast<std::size_t>(col.rows[e])] * col.coefs[e];
    }
    d_[static_cast<std::size_t>(j)] = d;
  }
}

bool RevisedSimplex::dual_start_feasible() {
  double cost_scale = 1.0;
  for (const double c : prep_.cost) {
    cost_scale = std::max(cost_scale, std::abs(c));
  }
  dtol_ = options_.optimality_tol * cost_scale;
  shifted_cost_ = prep_.cost;
  dual_refresh();
  for (int j = 0; j < n_; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    if (status_[ju] == BasisVarStatus::kBasic) continue;
    if (lower_[ju] == upper_[ju]) continue;  // fixed: any sign is feasible
    switch (status_[ju]) {
      case BasisVarStatus::kAtLower:
        if (d_[ju] < -dtol_) return false;
        break;
      case BasisVarStatus::kAtUpper:
        if (d_[ju] > dtol_) return false;
        break;
      case BasisVarStatus::kFree:
        if (std::abs(d_[ju]) > dtol_) return false;
        break;
      case BasisVarStatus::kBasic: break;
    }
  }
  return true;
}

void RevisedSimplex::dual_perturb() {
  perturbed_ = true;
  for (int j = 0; j < n_; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    if (status_[ju] == BasisVarStatus::kBasic) continue;
    if (lower_[ju] == upper_[ju]) continue;
    // Deterministic per-column spread in [dtol_, 1.5 dtol_]: ties between
    // breakpoints become strict orderings, which is all cycling needs.
    const double eps =
        dtol_ * (1.0 + 0.5 * static_cast<double>((j * 37) % 101) / 101.0);
    switch (status_[ju]) {
      case BasisVarStatus::kAtLower:
        if (d_[ju] < eps) {
          shifted_cost_[ju] += eps - d_[ju];
          d_[ju] = eps;
        }
        break;
      case BasisVarStatus::kAtUpper:
        if (d_[ju] > -eps) {
          shifted_cost_[ju] -= d_[ju] + eps;
          d_[ju] = -eps;
        }
        break;
      default: break;  // free columns keep their (near-zero) reduced cost
    }
  }
}

SolveStatus RevisedSimplex::iterate_dual() {
  dual_refresh();
  int degenerate_run = 0;
  int pivots_since_poll = options_.refactor_interval;  // poll on entry
  while (true) {
    if (iterations_ >= options_.max_iterations) {
      return SolveStatus::kIterationLimit;
    }
    if (pivots_since_poll >= options_.refactor_interval) {
      pivots_since_poll = 0;
      const SolveStatus interrupted = interruption_status();
      if (interrupted != SolveStatus::kOptimal) return interrupted;
    }
    ++pivots_since_poll;

    // Leaving row: the most violated basic variable (dual Dantzig pricing).
    int r = -1;
    double best_v = ftol_;
    for (int k = 0; k < m_; ++k) {
      const double v = violation(basis_[static_cast<std::size_t>(k)]);
      if (v > best_v) {
        best_v = v;
        r = k;
      }
    }
    if (r < 0) {
      // Primal feasible => dual-optimal. Like the primal loop, only declare
      // against a freshly refactorized basis.
      if (pivots_since_refactor_ == 0) return SolveStatus::kOptimal;
      if (!refactorize_or_recover()) return SolveStatus::kNumericalError;
      if (restart_phase1_) {
        dual_abandoned_ = true;
        return SolveStatus::kOptimal;
      }
      dual_refresh();
      continue;
    }

    const int leaving = basis_[static_cast<std::size_t>(r)];
    const auto lu = static_cast<std::size_t>(leaving);
    const bool above = value_[lu] > upper_[lu];
    const double sigma = above ? 1.0 : -1.0;

    // Pivot row: rho = B^-T e_r, alpha_j = rho . A_j for nonbasic j.
    rho_.assign(static_cast<std::size_t>(m_), 0.0);
    rho_[static_cast<std::size_t>(r)] = 1.0;
    engine_->btran(rho_);
    price_rows(prep_, rho_, status_, row_);

    // Ratio-test breakpoints: nonbasic columns whose reduced cost blocks
    // the dual step along +sigma * rho.
    bps_.clear();
    for (const int j : row_.nz) {
      const auto ju = static_cast<std::size_t>(j);
      if (lower_[ju] == upper_[ju]) continue;  // fixed: never enters
      const double a = sigma * row_.alpha[ju];
      bool eligible = false;
      switch (status_[ju]) {
        case BasisVarStatus::kAtLower: eligible = a > options_.pivot_tol; break;
        case BasisVarStatus::kAtUpper:
          eligible = a < -options_.pivot_tol;
          break;
        case BasisVarStatus::kFree:
          eligible = std::abs(a) > options_.pivot_tol;
          break;
        case BasisVarStatus::kBasic: break;
      }
      if (!eligible) continue;
      double ratio = d_[ju] / a;
      if (ratio < 0.0) ratio = 0.0;  // d_ drift within tolerance
      const bool boxed = std::isfinite(lower_[ju]) && std::isfinite(upper_[ju]);
      bps_.push_back({j, ratio, std::abs(row_.alpha[ju]),
                      boxed ? upper_[ju] - lower_[ju] : kInf});
    }

    // The walk's slope starts at row r's primal infeasibility.
    const int q = bfrt_select(bps_, best_v, ftol_, dtol_, flips_);
    if (q < 0) {
      // Declare primal infeasibility only against a fresh factorization.
      if (pivots_since_refactor_ == 0) return SolveStatus::kInfeasible;
      if (!refactorize_or_recover()) return SolveStatus::kNumericalError;
      if (restart_phase1_) {
        dual_abandoned_ = true;
        return SolveStatus::kOptimal;
      }
      dual_refresh();
      continue;
    }
    const auto qu = static_cast<std::size_t>(q);

    // Entering direction w = B^-1 A_q; validate the pivot before mutating
    // any state so a retreat leaves the basis consistent.
    w_.assign(static_cast<std::size_t>(m_), 0.0);
    const SparseColumn& qcol = prep_.columns[qu];
    for (std::size_t e = 0; e < qcol.rows.size(); ++e) {
      w_[static_cast<std::size_t>(qcol.rows[e])] = qcol.coefs[e];
    }
    engine_->ftran(w_);
    const double pivot = w_[static_cast<std::size_t>(r)];
    // FTRAN and BTRAN views of the pivot must agree; a large relative gap
    // means the eta file has drifted.
    const bool unstable =
        std::abs(pivot) < options_.pivot_tol ||
        std::abs(pivot - row_.alpha[qu]) > 1e-6 + 0.5 * std::abs(pivot);
    if (unstable) {
      if (pivots_since_refactor_ == 0) {
        // Fresh basis and still no usable pivot: hand the repair to the
        // primal phases rather than looping.
        dual_abandoned_ = true;
        return SolveStatus::kOptimal;
      }
      if (!refactorize_or_recover()) return SolveStatus::kNumericalError;
      if (restart_phase1_) {
        dual_abandoned_ = true;
        return SolveStatus::kOptimal;
      }
      dual_refresh();
      continue;
    }

    double t = d_[qu] / (sigma * row_.alpha[qu]);
    if (t < 0.0) t = 0.0;  // degenerate: restores q's own feasibility

    // Apply the accumulated bound flips: each nonbasic jumps its whole
    // range; the basic values absorb B^-1 (sum delta_j A_j) in one ftran.
    if (!flips_.empty()) {
      work_.assign(static_cast<std::size_t>(m_), 0.0);
      for (const int j : flips_) {
        const auto ju = static_cast<std::size_t>(j);
        const double range = upper_[ju] - lower_[ju];
        double delta;
        if (status_[ju] == BasisVarStatus::kAtLower) {
          status_[ju] = BasisVarStatus::kAtUpper;
          value_[ju] = upper_[ju];
          delta = range;
        } else {
          status_[ju] = BasisVarStatus::kAtLower;
          value_[ju] = lower_[ju];
          delta = -range;
        }
        const SparseColumn& col = prep_.columns[ju];
        for (std::size_t e = 0; e < col.rows.size(); ++e) {
          work_[static_cast<std::size_t>(col.rows[e])] += col.coefs[e] * delta;
        }
      }
      engine_->ftran(work_);
      for (int k = 0; k < m_; ++k) {
        value_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(k)])] -=
            work_[static_cast<std::size_t>(k)];
      }
      bound_flips_ += static_cast<int>(flips_.size());
    }

    // Dual update along y' = y + t sigma rho: d_j -= t sigma alpha_j for
    // every nonbasic column with a pivot-row entry; the leaving variable
    // lands at -sigma t (feasible for the bound it leaves at).
    if (t != 0.0) {
      for (const int j : row_.nz) {
        const auto ju = static_cast<std::size_t>(j);
        d_[ju] -= t * sigma * row_.alpha[ju];
      }
    }
    d_[lu] = -sigma * t;
    d_[qu] = 0.0;

    // Primal step: drive the leaving variable exactly onto its violated
    // bound; the entering variable absorbs the row's residual.
    const double target = above ? upper_[lu] : lower_[lu];
    const double dx = (value_[lu] - target) / pivot;
    if (dx != 0.0) {
      for (int k = 0; k < m_; ++k) {
        value_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(k)])] -=
            dx * w_[static_cast<std::size_t>(k)];
      }
    }
    value_[qu] += dx;

    status_[lu] = above ? BasisVarStatus::kAtUpper : BasisVarStatus::kAtLower;
    value_[lu] = target;
    status_[qu] = BasisVarStatus::kBasic;
    basis_[static_cast<std::size_t>(r)] = q;

    ++iterations_;
    ++dual_pivots_;
    if (t < kDegenerateStep) {
      ++degenerate_run;
      ++degenerate_pivots_;
      if (degenerate_run > options_.degeneracy_threshold) {
        dual_perturb();
        degenerate_run = 0;
      }
    } else {
      degenerate_run = 0;
    }

    const bool updated = engine_->update(w_, r);
    if (!updated || ++pivots_since_refactor_ >= options_.refactor_interval ||
        engine_->should_refactorize()) {
      if (!refactorize_or_recover()) return SolveStatus::kNumericalError;
      if (restart_phase1_) {
        dual_abandoned_ = true;
        return SolveStatus::kOptimal;
      }
      dual_refresh();
    }
  }
}

}  // namespace etransform::lp::detail
