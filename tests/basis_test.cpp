// Tests for the sparse LU basis engine (lp/basis.*): the per-count column
// index that picks Markowitz candidates, reuse of one engine across
// refactorizations, FTRAN/BTRAN residuals on sparse and dense-window bases,
// and singular-basis detection.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "lp/basis.h"
#include "lp/column_count_index.h"
#include "lu_residuals.h"

namespace etransform::lp {
namespace {

using detail::ColumnCountIndex;

// Random count updates (inserts, removals, count changes, counts on both
// sides of the indexed range): every query equals a brute-force sort of the
// live columns by (count, index), or is declined (-1) exactly when that
// answer includes a column whose count is not indexed.
TEST(ColumnCountIndex, SmallestMatchesBruteForceSort) {
  Rng rng(5);
  for (const int columns : {1, 7, 64, 65, 200, 360}) {
    SCOPED_TRACE("columns=" + std::to_string(columns));
    ColumnCountIndex index;
    index.reset(columns);
    std::vector<int> count(static_cast<std::size_t>(columns), -1);  // -1: absent
    int active = 0;
    int declined = 0;
    for (int op = 0; op < 4000; ++op) {
      const int j = static_cast<int>(rng.uniform_int(0, columns - 1));
      int& c = count[static_cast<std::size_t>(j)];
      if (c >= 0) {
        index.erase(j, c);
        --active;
      }
      if (rng.uniform() < 0.2) {
        c = -1;  // column leaves the active set
      } else {
        // Phases of mostly small counts alternate with phases of mostly
        // counts past the indexed range.
        const double small_share = (op / 500) % 2 == 0 ? 0.8 : 0.1;
        c = rng.uniform() < small_share
                ? static_cast<int>(rng.uniform_int(0, 6))
                : static_cast<int>(rng.uniform_int(ColumnCountIndex::kMaxCount - 2,
                                                   3 * ColumnCountIndex::kMaxCount));
        index.insert(j, c);
        ++active;
      }

      const int k = static_cast<int>(rng.uniform_int(1, 10));
      std::vector<std::pair<int, int>> live;
      for (int i = 0; i < columns; ++i) {
        if (count[static_cast<std::size_t>(i)] >= 0) {
          live.emplace_back(count[static_cast<std::size_t>(i)], i);
        }
      }
      std::sort(live.begin(), live.end());
      live.resize(std::min(live.size(), static_cast<std::size_t>(k)));

      std::vector<int> out(static_cast<std::size_t>(k), -1);
      const int n = index.smallest(k, active, out.data());
      const bool needs_unindexed =
          !live.empty() && live.back().first >= ColumnCountIndex::kMaxCount;
      if (needs_unindexed) {
        EXPECT_EQ(n, -1) << "op " << op;
        ++declined;
        continue;
      }
      ASSERT_EQ(n, static_cast<int>(live.size())) << "op " << op;
      for (int q = 0; q < n; ++q) {
        EXPECT_EQ(out[static_cast<std::size_t>(q)],
                  live[static_cast<std::size_t>(q)].second)
            << "op " << op << " rank " << q;
      }
    }
    if (columns >= 64) {
      EXPECT_GT(declined, 0);  // the caller's scan fallback was exercised
    }
  }
}

/// `cols` columns over `m` rows with the given off-diagonal density and a
/// dominant entry on row j % m, plus one +1 slack per row after them.
std::vector<SparseColumn> random_columns(std::uint64_t seed, int m, int cols,
                                         double density) {
  Rng rng(seed);
  std::vector<SparseColumn> columns(static_cast<std::size_t>(cols + m));
  for (int j = 0; j < cols; ++j) {
    auto& col = columns[static_cast<std::size_t>(j)];
    const int diag = j % m;
    for (int i = 0; i < m; ++i) {
      if (i == diag) {
        col.rows.push_back(i);
        col.coefs.push_back(4.0 + rng.uniform(0.0, 1.0));
      } else if (rng.uniform() < density) {
        col.rows.push_back(i);
        // Unit entries make exact cancellations (and their bookkeeping) occur.
        col.coefs.push_back(rng.uniform() < 0.5 ? 1.0 : rng.uniform(-1.0, 1.0));
      }
    }
  }
  for (int i = 0; i < m; ++i) {
    columns[static_cast<std::size_t>(cols + i)].rows = {i};
    columns[static_cast<std::size_t>(cols + i)].coefs = {1.0};
  }
  return columns;
}

/// A basis of `m` positions over random_columns(.., m, m, ..): structural
/// column k with probability `structural`, the row-k slack otherwise.
std::vector<int> mixed_basis(Rng& rng, int m, double structural) {
  std::vector<int> basis(static_cast<std::size_t>(m));
  for (int k = 0; k < m; ++k) {
    basis[static_cast<std::size_t>(k)] = rng.uniform() < structural ? k : m + k;
  }
  return basis;
}

std::vector<double> probe(Rng& rng, int m) {
  std::vector<double> x(static_cast<std::size_t>(m));
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// One engine refactorizing a sequence of bases (sparse, dense-window,
// singular, then sparse again) solves exactly like a fresh engine on each:
// no stale working buffer, count index or Schur-update stamp leaks from
// one factorize() into the next.
TEST(SparseLuBasis, ReusedEngineMatchesFreshEngineBytewise) {
  const int m = 80;
  const auto sparse = random_columns(1, m, m, 0.03);
  const auto dense = random_columns(2, m, m, 0.5);
  // Thirteen copies of one column: the elimination stops with a dozen
  // columns still active, the state a failed factorize() leaves behind.
  auto singular = sparse;
  for (int j = 1; j <= 12; ++j) singular[static_cast<std::size_t>(j)] = singular[0];
  const struct {
    const std::vector<SparseColumn>* columns;
    double structural;
    bool ok;
  } sequence[] = {
      {&sparse, 0.5, true},  {&dense, 1.0, true},     {&sparse, 1.0, true},
      {&singular, 1.0, false}, {&sparse, 0.3, true}, {&dense, 0.6, true},
      {&sparse, 0.8, true},
  };
  const auto reused = make_basis_factorization(m, 1e-9);
  Rng rng(3);
  for (const auto& s : sequence) {
    const std::vector<int> basis = mixed_basis(rng, m, s.structural);
    ASSERT_EQ(reused->factorize(*s.columns, basis), s.ok);
    if (!s.ok) continue;
    const auto fresh = make_basis_factorization(m, 1e-9);
    ASSERT_TRUE(fresh->factorize(*s.columns, basis));
    EXPECT_EQ(reused->counters().factor_entries, fresh->counters().factor_entries);
    for (int trial = 0; trial < 3; ++trial) {
      const std::vector<double> x = probe(rng, m);
      std::vector<double> a = x;
      std::vector<double> b = x;
      reused->ftran(a);
      fresh->ftran(b);
      EXPECT_TRUE(same_bytes(a, b)) << "ftran";
      a = x;
      b = x;
      reused->btran(a);
      fresh->btran(b);
      EXPECT_TRUE(same_bytes(a, b)) << "btran";
    }
  }
}

// Sparse bases stay on the Markowitz path; bases of density >= 0.35 switch
// to the dense trailing window. Both must solve to 1e-9.
TEST(SparseLuBasis, FtranBtranResidualsOnSparseAndDenseWindowBases) {
  const struct {
    int m;
    double density;
    double structural;
  } cases[] = {
      {40, 0.02, 0.5}, {120, 0.02, 0.7}, {200, 0.01, 1.0}, {60, 0.1, 1.0},
      {64, 0.35, 1.0}, {80, 0.5, 0.8},   {48, 0.9, 1.0},
  };
  Rng rng(11);
  std::uint64_t seed = 100;
  for (const auto& c : cases) {
    SCOPED_TRACE("m=" + std::to_string(c.m) +
                 " density=" + std::to_string(c.density));
    const auto columns = random_columns(seed++, c.m, c.m, c.density);
    const auto engine = make_basis_factorization(c.m, 1e-9);
    for (int trial = 0; trial < 4; ++trial) {
      const std::vector<int> basis = mixed_basis(rng, c.m, c.structural);
      ASSERT_TRUE(engine->factorize(columns, basis));
      const auto [ftran_res, btran_res] = lu_residuals(*engine, columns, basis, rng);
      EXPECT_LE(ftran_res, 1e-9);
      EXPECT_LE(btran_res, 1e-9);
    }
  }
}

// Singular bases are reported, whether the rank deficiency shows in the
// sparse Markowitz loop (an empty row, a repeated column) or inside the
// dense trailing window.
TEST(SparseLuBasis, SingularBasisReturnsFalse) {
  {
    // Row 2 is empty: no column has an entry there.
    std::vector<SparseColumn> columns(3);
    columns[0].rows = {0, 1};
    columns[0].coefs = {1.0, 2.0};
    columns[1].rows = {1};
    columns[1].coefs = {1.0};
    columns[2].rows = {0};
    columns[2].coefs = {3.0};
    EXPECT_FALSE(make_basis_factorization(3, 1e-9)->factorize(columns, {0, 1, 2}));
  }
  {
    const int m = 60;
    auto sparse = random_columns(7, m, m, 0.02);
    sparse[5] = sparse[9];
    Rng rng(1);
    std::vector<int> basis(static_cast<std::size_t>(m));
    for (int k = 0; k < m; ++k) basis[static_cast<std::size_t>(k)] = k;
    EXPECT_FALSE(make_basis_factorization(m, 1e-9)->factorize(sparse, basis));

    auto dense = random_columns(8, m, m, 0.8);
    dense[40] = dense[41];
    EXPECT_FALSE(make_basis_factorization(m, 1e-9)->factorize(dense, basis));
  }
}

}  // namespace
}  // namespace etransform::lp
