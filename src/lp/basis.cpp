#include "lp/basis.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "lp/column_count_index.h"

namespace etransform::lp {

namespace {

/// Relative threshold-pivoting factor: a pivot must be at least this
/// fraction of the largest entry in its column to be eligible. Trades a
/// little fill (Markowitz would prefer the sparsest pivot) for stability.
constexpr double kStabilityRel = 0.01;

/// Entries this small relative to the eta pivot are not stored in eta files.
constexpr double kEtaDropTol = 1e-13;

/// Once the active submatrix passes this density, Markowitz ordering mostly
/// produces fill anyway; finishing with a cache-friendly dense kernel
/// (plain partial pivoting) factorizes the trailing block much faster while
/// leaving the sparse leading factors untouched.
constexpr double kDenseWindowDensity = 0.35;

/// Below this active dimension the dense-window switch is not worth the
/// bookkeeping; the sparse loop finishes tiny blocks just fine.
constexpr int kDenseWindowMinDim = 32;

/// Test the active-submatrix density only every few steps. The active-entry
/// total is kept as a running sum, so the test itself is O(1); the stride
/// only fixes which steps may switch to the dense window.
constexpr int kDensityCheckStride = 8;

/// Markowitz prices the pivot entries of this many sparsest active columns.
constexpr int kCandidates = 8;

/// One (index, value) entry of a sparse factor column/row.
struct Entry {
  int index;
  double value;
};

// ---------------------------------------------------------------------------
// Sparse LU with Markowitz ordering + product-form eta updates.

class SparseLuBasis final : public BasisFactorization {
 public:
  SparseLuBasis(int rows, double pivot_tol)
      : m_(rows),
        pivot_tol_(pivot_tol),
        cols_(static_cast<std::size_t>(rows)),
        row_pat_(static_cast<std::size_t>(rows)),
        work_vals_(static_cast<std::size_t>(rows), 0.0),
        work_mark_(static_cast<std::size_t>(rows), -1) {}

  bool factorize(const std::vector<SparseColumn>& columns,
                 const std::vector<int>& basis) override {
    eta_r_.clear();
    eta_pivot_.clear();
    eta_index_.clear();
    eta_value_.clear();
    eta_start_.assign(1, 0);
    if (stamp_ > std::numeric_limits<int>::max() / 2) {
      std::fill(work_mark_.begin(), work_mark_.end(), -1);
      stamp_ = 0;
    }
    // Every working buffer below is an engine member that is cleared, not
    // freed, so a refactorization reuses the previous one's capacity.
    l_start_.assign(static_cast<std::size_t>(m_) + 1, 0);
    u_start_.assign(static_cast<std::size_t>(m_) + 1, 0);
    l_index_.clear();
    l_value_.clear();
    u_index_.clear();
    u_value_.clear();
    u_diag_.assign(static_cast<std::size_t>(m_), 0.0);
    row_of_step_.assign(static_cast<std::size_t>(m_), -1);
    pos_of_step_.assign(static_cast<std::size_t>(m_), -1);
    if (m_ == 0) {
      ++counters_.refactorizations;
      counters_.factor_entries = 0;
      return true;
    }

    // Active submatrix: exact column-major values plus a lazy row pattern.
    for (auto& p : row_pat_) p.clear();
    row_count_.assign(static_cast<std::size_t>(m_), 0);
    row_active_.assign(static_cast<std::size_t>(m_), 1);
    col_active_.assign(static_cast<std::size_t>(m_), 1);
    by_count_.reset(m_);
    active_entries_ = 0;
    for (int k = 0; k < m_; ++k) {
      const SparseColumn& col = columns[static_cast<std::size_t>(basis[static_cast<std::size_t>(k)])];
      auto& dest = cols_[static_cast<std::size_t>(k)];
      dest.clear();
      dest.reserve(col.rows.size());
      for (std::size_t e = 0; e < col.rows.size(); ++e) {
        if (col.coefs[e] == 0.0) continue;
        dest.push_back(Entry{col.rows[e], col.coefs[e]});
        row_pat_[static_cast<std::size_t>(col.rows[e])].push_back(k);
        ++row_count_[static_cast<std::size_t>(col.rows[e])];
      }
      attach(k);
    }

    // The stamp is monotonic across factorize() calls: work_mark_ persists,
    // so restarting it would collide with marks left by a previous
    // factorization and silently drop fill-in entries.
    int& stamp = stamp_;

    for (int step = 0; step < m_; ++step) {
      // --- Dense-window switch once the active block has densified. -------
      if (step % kDensityCheckStride == 0 && m_ - step >= kDenseWindowMinDim) {
        const double active = m_ - step;
        if (static_cast<double>(active_entries_) >=
            kDenseWindowDensity * active * active) {
          if (!finish_dense_window(step)) return false;
          break;
        }
      }

      // --- Markowitz pivot selection over the sparsest few columns. -------
      int cand[kCandidates];
      const int cand_n = select_candidates(m_ - step, cand);
      int best_row = -1;
      int best_col = -1;
      double best_val = 0.0;
      long long best_cost = std::numeric_limits<long long>::max();
      for (int c = 0; c < cand_n; ++c) {
        const int j = cand[c];
        const auto& col = cols_[static_cast<std::size_t>(j)];
        double col_max = 0.0;
        for (const Entry& e : col) col_max = std::max(col_max, std::abs(e.value));
        if (col_max < pivot_tol_) continue;
        const double eligible = std::max(pivot_tol_, kStabilityRel * col_max);
        const long long cc = static_cast<long long>(col.size()) - 1;
        for (const Entry& e : col) {
          const double mag = std::abs(e.value);
          if (mag < eligible) continue;
          const long long cost =
              cc * (static_cast<long long>(row_count_[static_cast<std::size_t>(e.index)]) - 1);
          if (cost < best_cost ||
              (cost == best_cost && mag > std::abs(best_val))) {
            best_cost = cost;
            best_row = e.index;
            best_col = j;
            best_val = e.value;
          }
        }
      }
      if (best_row < 0) {
        // The sparsest candidates were all below tolerance; fall back to a
        // full scan before declaring the basis singular.
        for (int j = 0; j < m_ && best_row < 0; ++j) {
          if (!col_active_[static_cast<std::size_t>(j)]) continue;
          for (const Entry& e : cols_[static_cast<std::size_t>(j)]) {
            if (std::abs(e.value) < pivot_tol_) continue;
            if (best_row < 0 || std::abs(e.value) > std::abs(best_val)) {
              best_row = e.index;
              best_col = j;
              best_val = e.value;
            }
          }
        }
        if (best_row < 0) return false;  // singular within tolerance
      }

      row_of_step_[static_cast<std::size_t>(step)] = best_row;
      pos_of_step_[static_cast<std::size_t>(step)] = best_col;
      u_diag_[static_cast<std::size_t>(step)] = best_val;

      // --- Extract multipliers from the pivot column (L column `step`). ---
      // Factor indices stay in original coordinates (rows for L, basis
      // positions for U) until the elimination order is complete.
      const std::size_t l_begin = l_index_.size();
      l_start_[static_cast<std::size_t>(step)] = l_begin;
      detach(best_col);
      for (const Entry& e : cols_[static_cast<std::size_t>(best_col)]) {
        if (e.index == best_row) continue;
        l_index_.push_back(e.index);
        l_value_.push_back(e.value / best_val);
        --row_count_[static_cast<std::size_t>(e.index)];
      }
      const std::size_t l_end = l_index_.size();
      cols_[static_cast<std::size_t>(best_col)].clear();
      col_active_[static_cast<std::size_t>(best_col)] = 0;
      row_active_[static_cast<std::size_t>(best_row)] = 0;

      // --- Extract the pivot row (U row `step`). --------------------------
      const std::size_t u_begin = u_index_.size();
      u_start_[static_cast<std::size_t>(step)] = u_begin;
      for (const int j : row_pat_[static_cast<std::size_t>(best_row)]) {
        if (j == best_col || !col_active_[static_cast<std::size_t>(j)]) continue;
        auto& col = cols_[static_cast<std::size_t>(j)];
        for (std::size_t e = 0; e < col.size(); ++e) {
          if (col[e].index != best_row) continue;
          u_index_.push_back(j);
          u_value_.push_back(col[e].value);
          detach(j);  // re-attached under its new count after the update
          col[e] = col.back();
          col.pop_back();
          break;
        }
      }
      row_pat_[static_cast<std::size_t>(best_row)].clear();

      // --- Schur update: col_j -= l * u_kj for every multiplier. ----------
      // A pivot column without multipliers (a singleton, the common case
      // for slack columns) changes no values: the pivot-row columns only
      // lost their pivot-row entry above.
      for (std::size_t p = u_begin; p < u_index_.size(); ++p) {
        const int uj = u_index_[p];
        if (l_begin < l_end) {
          const double uv = u_value_[p];
          auto& col = cols_[static_cast<std::size_t>(uj)];
          ++stamp;
          for (const Entry& e : col) {
            work_mark_[static_cast<std::size_t>(e.index)] = stamp;
            work_vals_[static_cast<std::size_t>(e.index)] = e.value;
          }
          for (std::size_t q = l_begin; q < l_end; ++q) {
            const std::size_t i = static_cast<std::size_t>(l_index_[q]);
            if (work_mark_[i] == stamp) {
              work_vals_[i] -= l_value_[q] * uv;
            } else {
              work_mark_[i] = stamp;
              work_vals_[i] = -l_value_[q] * uv;
              col.push_back(Entry{l_index_[q], 0.0});  // fill-in; value set below
              row_pat_[i].push_back(uj);
              ++row_count_[i];
            }
          }
          std::size_t keep = 0;
          for (std::size_t e = 0; e < col.size(); ++e) {
            const std::size_t i = static_cast<std::size_t>(col[e].index);
            const double v = work_vals_[i];
            if (v == 0.0) {
              --row_count_[i];
              continue;  // exact cancellation
            }
            col[keep++] = Entry{col[e].index, v};
          }
          col.resize(keep);
        }
        attach(uj);
      }
    }

    // Map factor indices into elimination-step coordinates. The factors are
    // already flat contiguous index/value arrays: the triangular solves run
    // every iteration and are far kinder to the cache this way than chasing
    // a vector-of-vectors.
    l_start_[static_cast<std::size_t>(m_)] = l_index_.size();
    u_start_[static_cast<std::size_t>(m_)] = u_index_.size();
    step_of_row_.assign(static_cast<std::size_t>(m_), -1);
    step_of_pos_.assign(static_cast<std::size_t>(m_), -1);
    for (int k = 0; k < m_; ++k) {
      step_of_row_[static_cast<std::size_t>(row_of_step_[static_cast<std::size_t>(k)])] = k;
      step_of_pos_[static_cast<std::size_t>(pos_of_step_[static_cast<std::size_t>(k)])] = k;
    }
    for (int& i : l_index_) i = step_of_row_[static_cast<std::size_t>(i)];
    for (int& j : u_index_) j = step_of_pos_[static_cast<std::size_t>(j)];
    const long long entries = static_cast<long long>(m_) +
                              static_cast<long long>(l_index_.size()) +
                              static_cast<long long>(u_index_.size());
    ++counters_.refactorizations;
    counters_.factor_entries = entries;
    lu_entries_ = entries;
    eta_entries_since_factor_ = 0;
    return true;
  }

  /// Factorizes the trailing active block with a dense right-looking LU
  /// (partial pivoting, column-major daxpy inner loops), emitting factors
  /// for steps `step..m_-1` in the same pre-remap convention as the sparse
  /// loop: L entries carry original row indices, U entries carry basis
  /// positions.
  bool finish_dense_window(int step) {
    const int a = m_ - step;
    const auto az = static_cast<std::size_t>(a);
    std::vector<int> orig_row(az);   // local row -> original row (permuted)
    std::vector<int> orig_col(az);   // local col -> basis position
    std::vector<int> local_row(static_cast<std::size_t>(m_), -1);
    int r = 0;
    for (int i = 0; i < m_; ++i) {
      if (!row_active_[static_cast<std::size_t>(i)]) continue;
      local_row[static_cast<std::size_t>(i)] = r;
      orig_row[static_cast<std::size_t>(r++)] = i;
    }
    if (r != a) return false;  // active rows/cols out of sync: bail out
    dense_kernel_.assign(az * az, 0.0);
    int c = 0;
    for (int j = 0; j < m_; ++j) {
      if (!col_active_[static_cast<std::size_t>(j)]) continue;
      orig_col[static_cast<std::size_t>(c)] = j;
      double* dest = dense_kernel_.data() + static_cast<std::size_t>(c) * az;
      for (const Entry& e : cols_[static_cast<std::size_t>(j)]) {
        dest[local_row[static_cast<std::size_t>(e.index)]] = e.value;
      }
      ++c;
    }

    for (int k = 0; k < a; ++k) {
      double* ck = dense_kernel_.data() + static_cast<std::size_t>(k) * az;
      int p = k;
      double best = std::abs(ck[k]);
      for (int i = k + 1; i < a; ++i) {
        const double mag = std::abs(ck[i]);
        if (mag > best) {
          best = mag;
          p = i;
        }
      }
      if (best < pivot_tol_) return false;  // singular within tolerance
      if (p != k) {
        // Full-row swap (including the L part) keeps local physical order
        // equal to elimination order.
        for (std::size_t j = 0; j < az; ++j) {
          std::swap(dense_kernel_[j * az + static_cast<std::size_t>(k)],
                    dense_kernel_[j * az + static_cast<std::size_t>(p)]);
        }
        std::swap(orig_row[static_cast<std::size_t>(k)],
                  orig_row[static_cast<std::size_t>(p)]);
      }
      const double inv_piv = 1.0 / ck[k];
      for (int i = k + 1; i < a; ++i) ck[i] *= inv_piv;
      for (int j = k + 1; j < a; ++j) {
        double* cj = dense_kernel_.data() + static_cast<std::size_t>(j) * az;
        const double u = cj[k];
        if (u == 0.0) continue;
        for (int i = k + 1; i < a; ++i) cj[i] -= u * ck[i];
      }
    }

    for (int k = 0; k < a; ++k) {
      const auto s = static_cast<std::size_t>(step + k);
      const double* ck = dense_kernel_.data() + static_cast<std::size_t>(k) * az;
      row_of_step_[s] = orig_row[static_cast<std::size_t>(k)];
      pos_of_step_[s] = orig_col[static_cast<std::size_t>(k)];
      u_diag_[s] = ck[k];
      l_start_[s] = l_index_.size();
      for (int i = k + 1; i < a; ++i) {
        if (ck[i] != 0.0) {
          l_index_.push_back(orig_row[static_cast<std::size_t>(i)]);
          l_value_.push_back(ck[i]);
        }
      }
      u_start_[s] = u_index_.size();
      for (int j = k + 1; j < a; ++j) {
        const double v = dense_kernel_[static_cast<std::size_t>(j) * az +
                                       static_cast<std::size_t>(k)];
        if (v != 0.0) {
          u_index_.push_back(orig_col[static_cast<std::size_t>(j)]);
          u_value_.push_back(v);
        }
      }
    }
    return true;
  }

  void ftran(std::vector<double>& x) const override {
    if (m_ == 0) return;
    // Permute rows into elimination order, then L then U.
    auto& z = scratch_;
    z.resize(static_cast<std::size_t>(m_));
    for (int k = 0; k < m_; ++k) {
      z[static_cast<std::size_t>(k)] =
          x[static_cast<std::size_t>(row_of_step_[static_cast<std::size_t>(k)])];
    }
    for (int k = 0; k < m_; ++k) {
      const double t = z[static_cast<std::size_t>(k)];
      if (t == 0.0) continue;
      const std::size_t end = l_start_[static_cast<std::size_t>(k) + 1];
      for (std::size_t e = l_start_[static_cast<std::size_t>(k)]; e < end; ++e) {
        z[static_cast<std::size_t>(l_index_[e])] -= l_value_[e] * t;
      }
    }
    for (int k = m_ - 1; k >= 0; --k) {
      double t = z[static_cast<std::size_t>(k)];
      const std::size_t end = u_start_[static_cast<std::size_t>(k) + 1];
      for (std::size_t e = u_start_[static_cast<std::size_t>(k)]; e < end; ++e) {
        t -= u_value_[e] * z[static_cast<std::size_t>(u_index_[e])];
      }
      z[static_cast<std::size_t>(k)] = t / u_diag_[static_cast<std::size_t>(k)];
    }
    for (int k = 0; k < m_; ++k) {
      x[static_cast<std::size_t>(pos_of_step_[static_cast<std::size_t>(k)])] =
          z[static_cast<std::size_t>(k)];
    }
    // Product-form etas, oldest first.
    const std::size_t num_etas = eta_r_.size();
    for (std::size_t q = 0; q < num_etas; ++q) {
      const auto r = static_cast<std::size_t>(eta_r_[q]);
      const double t = x[r] / eta_pivot_[q];
      x[r] = t;
      if (t == 0.0) continue;
      const std::size_t end = eta_start_[q + 1];
      for (std::size_t e = eta_start_[q]; e < end; ++e) {
        x[static_cast<std::size_t>(eta_index_[e])] -= eta_value_[e] * t;
      }
    }
  }

  void btran(std::vector<double>& x) const override {
    if (m_ == 0) return;
    // Eta transposes, newest first.
    for (std::size_t q = eta_r_.size(); q-- > 0;) {
      const auto r = static_cast<std::size_t>(eta_r_[q]);
      double t = x[r];
      const std::size_t end = eta_start_[q + 1];
      for (std::size_t e = eta_start_[q]; e < end; ++e) {
        t -= eta_value_[e] * x[static_cast<std::size_t>(eta_index_[e])];
      }
      x[r] = t / eta_pivot_[q];
    }
    // U^T forward (scattering U rows), then L^T backward (gathering L cols).
    auto& z = scratch_;
    z.resize(static_cast<std::size_t>(m_));
    for (int k = 0; k < m_; ++k) {
      z[static_cast<std::size_t>(k)] =
          x[static_cast<std::size_t>(pos_of_step_[static_cast<std::size_t>(k)])];
    }
    for (int k = 0; k < m_; ++k) {
      const double v = z[static_cast<std::size_t>(k)] / u_diag_[static_cast<std::size_t>(k)];
      z[static_cast<std::size_t>(k)] = v;
      if (v == 0.0) continue;
      const std::size_t end = u_start_[static_cast<std::size_t>(k) + 1];
      for (std::size_t e = u_start_[static_cast<std::size_t>(k)]; e < end; ++e) {
        z[static_cast<std::size_t>(u_index_[e])] -= u_value_[e] * v;
      }
    }
    for (int k = m_ - 1; k >= 0; --k) {
      double t = z[static_cast<std::size_t>(k)];
      const std::size_t end = l_start_[static_cast<std::size_t>(k) + 1];
      for (std::size_t e = l_start_[static_cast<std::size_t>(k)]; e < end; ++e) {
        t -= l_value_[e] * z[static_cast<std::size_t>(l_index_[e])];
      }
      z[static_cast<std::size_t>(k)] = t;
    }
    for (int k = 0; k < m_; ++k) {
      x[static_cast<std::size_t>(row_of_step_[static_cast<std::size_t>(k)])] =
          z[static_cast<std::size_t>(k)];
    }
  }

  bool update(const std::vector<double>& w, int r) override {
    const double pivot = w[static_cast<std::size_t>(r)];
    if (!(std::abs(pivot) > pivot_tol_)) return false;
    const std::size_t before = eta_index_.size();
    const double drop = kEtaDropTol * std::abs(pivot);
    for (int i = 0; i < m_; ++i) {
      if (i == r) continue;
      const double v = w[static_cast<std::size_t>(i)];
      if (std::abs(v) <= drop) continue;
      eta_index_.push_back(i);
      eta_value_.push_back(v);
    }
    eta_r_.push_back(r);
    eta_pivot_.push_back(pivot);
    eta_start_.push_back(eta_index_.size());
    const auto added =
        static_cast<long long>(eta_index_.size() - before) + 1;
    eta_entries_since_factor_ += added;
    ++counters_.etas;
    counters_.eta_entries += added;
    return true;
  }

  bool should_refactorize() const override {
    // Refactorize once applying the eta file costs about as much as the
    // triangular solves themselves.
    return eta_entries_since_factor_ > std::max<long long>(512, 2 * lu_entries_);
  }

 private:
  /// Adds active column j to the running entry total and the count index.
  void attach(int j) {
    const int count = static_cast<int>(cols_[static_cast<std::size_t>(j)].size());
    active_entries_ += count;
    by_count_.insert(j, count);
  }

  /// Inverse of attach(); call before column j's entries change.
  void detach(int j) {
    const int count = static_cast<int>(cols_[static_cast<std::size_t>(j)].size());
    active_entries_ -= count;
    by_count_.erase(j, count);
  }

  /// Writes the (at most kCandidates) active columns with the smallest
  /// (count, column index) pairs to `cand`, in that order, and returns how
  /// many there are. `active` is the number of active columns.
  int select_candidates(int active, int* cand) const {
    const int n = by_count_.smallest(kCandidates, active, cand);
    if (n >= 0) return n;
    // Dense active block (threshold count not indexed): scan every active
    // column, insertion-sorting by count; ties keep the lower index first.
    int cand_n = 0;
    for (int j = 0; j < m_; ++j) {
      if (!col_active_[static_cast<std::size_t>(j)]) continue;
      const int count = static_cast<int>(cols_[static_cast<std::size_t>(j)].size());
      int at = cand_n < kCandidates ? cand_n : kCandidates;
      if (cand_n < kCandidates) ++cand_n;
      while (at > 0 &&
             static_cast<int>(cols_[static_cast<std::size_t>(cand[at - 1])].size()) > count) {
        if (at < kCandidates) cand[at] = cand[at - 1];
        --at;
      }
      if (at < kCandidates) cand[at] = j;
    }
    return cand_n;
  }

  int m_;
  double pivot_tol_;
  // Active submatrix of the elimination in progress.
  std::vector<std::vector<Entry>> cols_;  // by basis position, exact values
  std::vector<std::vector<int>> row_pat_;  // by row, lazy (may hold stale cols)
  std::vector<int> row_count_;             // exact active entries per row
  std::vector<char> row_active_, col_active_;
  long long active_entries_ = 0;           // sum of active column counts
  detail::ColumnCountIndex by_count_;
  // Flat factors: L column / U row k occupies [l_start_[k], l_start_[k+1]) /
  // [u_start_[k], u_start_[k+1]), indexed by elimination step once
  // factorize() completes (by original row / basis position until then).
  std::vector<std::size_t> l_start_, u_start_;  // m_+1 offsets each
  std::vector<int> l_index_, u_index_;
  std::vector<double> l_value_, u_value_;
  std::vector<double> u_diag_;
  std::vector<int> row_of_step_, step_of_row_;
  std::vector<int> pos_of_step_, step_of_pos_;
  // Product-form eta file, flattened: eta q occupies entry range
  // [eta_start_[q], eta_start_[q+1]).
  std::vector<int> eta_r_;
  std::vector<double> eta_pivot_;
  std::vector<std::size_t> eta_start_{0};
  std::vector<int> eta_index_;
  std::vector<double> eta_value_;
  long long lu_entries_ = 0;
  long long eta_entries_since_factor_ = 0;
  std::vector<double> work_vals_;
  std::vector<int> work_mark_;
  int stamp_ = 0;
  std::vector<double> dense_kernel_;  // column-major scratch, dense path only
  mutable std::vector<double> scratch_;
};

}  // namespace

bool TableauRowExtractor::load(int rows,
                               const std::vector<SparseColumn>& columns,
                               const std::vector<int>& basic_columns,
                               double pivot_tol) {
  rows_ = rows;
  rho_.assign(static_cast<std::size_t>(rows), 0.0);
  engine_ = make_basis_factorization(rows, pivot_tol);
  return engine_->factorize(columns, basic_columns);
}

const std::vector<double>& TableauRowExtractor::row_multipliers(int position) {
  std::fill(rho_.begin(), rho_.end(), 0.0);
  rho_[static_cast<std::size_t>(position)] = 1.0;
  engine_->btran(rho_);
  return rho_;
}

double TableauRowExtractor::row_coefficient(const std::vector<double>& rho,
                                            const SparseColumn& column) {
  double dot = 0.0;
  for (std::size_t e = 0; e < column.rows.size(); ++e) {
    dot += rho[static_cast<std::size_t>(column.rows[e])] * column.coefs[e];
  }
  return dot;
}

std::unique_ptr<BasisFactorization> make_basis_factorization(int rows,
                                                             double pivot_tol) {
  return std::make_unique<SparseLuBasis>(rows, pivot_tol);
}

}  // namespace etransform::lp
