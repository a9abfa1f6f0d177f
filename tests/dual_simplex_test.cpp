// Tests for the bound-flipping dual simplex and the LpEngine mode
// selection: dual-vs-primal differential agreement on reoptimization
// restarts, bound-flip ratio tests on boxed LPs, warm starts across
// appended cut rows (extend_basis + Origin::kRowsAdded), the
// fallback-to-primal contract on dual-infeasible starts, the
// branch-and-bound end-to-end differential, and the dual pivot kernels
// against their reference forms: row-wise vs column-wise PRICE and the
// selection BFRT walk vs the full sort.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/random.h"
#include "lp/lp_engine.h"
#include "lp/simplex_core.h"
#include "milp/branch_and_bound.h"

namespace etransform::lp {
namespace {

Model random_boxed_lp(std::uint64_t seed, int vars, int rows, double density) {
  Rng rng(seed);
  Model model;
  std::vector<Term> objective;
  for (int j = 0; j < vars; ++j) {
    const int v = model.add_continuous("x" + std::to_string(j), 0.0,
                                       rng.uniform(1.0, 10.0));
    objective.push_back({v, rng.uniform(-5.0, 5.0)});
  }
  model.set_objective(Sense::kMinimize, objective);
  for (int i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    for (int j = 0; j < vars; ++j) {
      if (rng.uniform() < density) terms.push_back({j, rng.uniform(-2.0, 2.0)});
    }
    model.add_constraint("r" + std::to_string(i), terms, Relation::kLessEqual,
                         rng.uniform(1.0, 20.0));
  }
  return model;
}

std::vector<double> model_lowers(const Model& model) {
  std::vector<double> lower(static_cast<std::size_t>(model.num_variables()));
  for (int j = 0; j < model.num_variables(); ++j) {
    lower[static_cast<std::size_t>(j)] = model.variable(j).lower;
  }
  return lower;
}

std::vector<double> model_uppers(const Model& model) {
  std::vector<double> upper(static_cast<std::size_t>(model.num_variables()));
  for (int j = 0; j < model.num_variables(); ++j) {
    upper[static_cast<std::size_t>(j)] = model.variable(j).upper;
  }
  return upper;
}

// After a bound change the parent-optimal basis stays dual-feasible, so
// kAuto + Origin::kBoundChange must reoptimize with the dual simplex and
// land on the same optimum a cold primal solve finds.
TEST(DualSimplex, AgreesWithPrimalAfterBoundChanges) {
  const std::uint64_t seeds[] = {11, 12, 13, 14, 15, 16};
  int dual_runs = 0;
  for (const std::uint64_t seed : seeds) {
    const Model model = random_boxed_lp(seed, 60, 30, 0.3);
    const PreparedLp prep(model);
    std::vector<double> lower = model_lowers(model);
    std::vector<double> upper = model_uppers(model);

    SolveContext root_ctx;
    const LpEngine engine;
    const LpSolution root = engine.solve(prep, lower, upper, root_ctx);
    ASSERT_EQ(root.status, SolveStatus::kOptimal) << "seed " << seed;
    ASSERT_NE(root.basis, nullptr);

    // Tighten a third of the uppers (x = 0 stays feasible: every row is a
    // <= with positive rhs), the branching move that leaves the parent
    // basis dual-feasible but usually primal-infeasible.
    Rng rng(seed * 977);
    for (std::size_t j = 0; j < upper.size(); j += 3) {
      upper[j] *= rng.uniform(0.1, 0.6);
    }

    SimplexOptions primal_only;
    primal_only.mode = SolveMode::kPrimal;
    SolveContext cold_ctx;
    const LpSolution cold =
        LpEngine(primal_only).solve(prep, lower, upper, cold_ctx);
    ASSERT_EQ(cold.status, SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_FALSE(cold.used_dual);

    SolveContext warm_ctx;
    const LpSolution warm = engine.solve(
        prep, lower, upper, warm_ctx,
        LpStartBasis(root.basis.get(), LpStartBasis::Origin::kBoundChange));
    ASSERT_EQ(warm.status, SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-6 * (1.0 + std::abs(cold.objective)))
        << "seed " << seed;
    if (warm.used_dual) {
      ++dual_runs;
      EXPECT_GT(warm.dual_pivots + warm.bound_flips, 0) << "seed " << seed;
    }
  }
  // The optimal basis must pass the dual-feasibility gate on most seeds —
  // reduced costs do not move when bounds do.
  EXPECT_GE(dual_runs, 4);
}

// A single >=-row over near-equal-cost boxed variables: forbidding the
// variables the optimum selected leaves the row massively infeasible, and
// one BFRT ratio test must flip through several boxed breakpoints before
// an entering variable absorbs the rest.
TEST(DualSimplex, BoundFlippingRatioTestFlipsBoxedVariables) {
  const int n = 20;
  Model model;
  std::vector<Term> objective;
  std::vector<Term> row;
  for (int j = 0; j < n; ++j) {
    const int v = model.add_continuous("x" + std::to_string(j), 0.0, 1.0);
    objective.push_back({v, 1.0 + 0.01 * j});
    row.push_back({v, 1.0});
  }
  model.set_objective(Sense::kMinimize, objective);
  model.add_constraint("demand", row, Relation::kGreaterEqual, 10.0);

  const PreparedLp prep(model);
  std::vector<double> lower = model_lowers(model);
  std::vector<double> upper = model_uppers(model);

  SolveContext root_ctx;
  const LpEngine engine;
  const LpSolution root = engine.solve(prep, lower, upper, root_ctx);
  ASSERT_EQ(root.status, SolveStatus::kOptimal);
  EXPECT_NEAR(root.objective, 10.0 + 0.01 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7 +
                                             8 + 9),
              1e-6);

  // Forbid the ten cheapest variables the optimum used.
  for (std::size_t j = 0; j < 10; ++j) upper[j] = 0.0;

  SolveContext warm_ctx;
  const LpSolution warm = engine.solve(
      prep, lower, upper, warm_ctx,
      LpStartBasis(root.basis.get(), LpStartBasis::Origin::kBoundChange));
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_TRUE(warm.used_dual);
  // Ten units of demand move to the ten remaining variables; one of them
  // enters, the others are bound flips of the same ratio test.
  EXPECT_GE(warm.bound_flips, 5);
  EXPECT_NEAR(warm.objective,
              10.0 + 0.01 * (10 + 11 + 12 + 13 + 14 + 15 + 16 + 17 + 18 + 19),
              1e-6);

  SimplexOptions primal_only;
  primal_only.mode = SolveMode::kPrimal;
  SolveContext cold_ctx;
  const LpSolution cold =
      LpEngine(primal_only).solve(prep, lower, upper, cold_ctx);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-6);
}

// Appending a violated row and mapping the old basis over via extend_basis
// keeps the old duals (new slack basic), so Origin::kRowsAdded must take
// the dual path and agree with a cold solve of the grown model.
TEST(DualSimplex, WarmStartsAcrossAppendedCutRow) {
  const std::uint64_t seeds[] = {31, 32, 33, 34};
  int dual_runs = 0;
  for (const std::uint64_t seed : seeds) {
    Model model = random_boxed_lp(seed, 40, 20, 0.4);
    const PreparedLp prep(model);
    std::vector<double> lower = model_lowers(model);
    std::vector<double> upper = model_uppers(model);

    SolveContext root_ctx;
    const LpEngine engine;
    const LpSolution root = engine.solve(prep, lower, upper, root_ctx);
    ASSERT_EQ(root.status, SolveStatus::kOptimal) << "seed " << seed;

    // A cut through the current optimum: sum of the fractional-support
    // values, tightened by 20%. Feasibility survives (x = 0 satisfies it).
    std::vector<Term> cut;
    double activity = 0.0;
    for (int j = 0; j < model.num_variables(); ++j) {
      const double v = root.values[static_cast<std::size_t>(j)];
      if (v > 1e-9) {
        cut.push_back({j, 1.0});
        activity += v;
      }
    }
    ASSERT_FALSE(cut.empty()) << "seed " << seed;
    model.add_constraint("cut", cut, Relation::kLessEqual, 0.8 * activity);

    const PreparedLp grown(model);
    ASSERT_EQ(grown.num_rows(), prep.num_rows() + 1) << "seed " << seed;
    std::vector<int> old_row_of_new;
    for (int r = 0; r < prep.num_rows(); ++r) old_row_of_new.push_back(r);
    old_row_of_new.push_back(-1);
    const BasisSnapshot mapped =
        extend_basis(*root.basis, prep.num_vars, old_row_of_new,
                     grown.num_rows(), grown.num_columns());

    SolveContext warm_ctx;
    const LpSolution warm = engine.solve(
        grown, lower, upper, warm_ctx,
        LpStartBasis(&mapped, LpStartBasis::Origin::kRowsAdded));
    ASSERT_EQ(warm.status, SolveStatus::kOptimal) << "seed " << seed;

    SimplexOptions primal_only;
    primal_only.mode = SolveMode::kPrimal;
    SolveContext cold_ctx;
    const LpSolution cold =
        LpEngine(primal_only).solve(grown, lower, upper, cold_ctx);
    ASSERT_EQ(cold.status, SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(warm.objective, cold.objective,
                1e-6 * (1.0 + std::abs(cold.objective)))
        << "seed " << seed;
    EXPECT_TRUE(warm.warm_started) << "seed " << seed;
    if (warm.used_dual) ++dual_runs;
  }
  EXPECT_GE(dual_runs, 3);
}

// A cold start carries no reoptimization claim: kAuto must not attempt the
// dual simplex, and kDual from a dual-infeasible start (attractive reduced
// costs at the slack basis) must fall back to the primal and still solve.
TEST(DualSimplex, FallsBackToPrimalOnDualInfeasibleStart) {
  // min -x - y subject to x + y <= 4, x, y in [0, 3]: at the slack basis
  // both reduced costs are -1, so no dual-feasible start exists cold.
  Model model;
  const int x = model.add_continuous("x", 0.0, 3.0);
  const int y = model.add_continuous("y", 0.0, 3.0);
  model.set_objective(Sense::kMinimize, {{x, -1.0}, {y, -1.0}});
  model.add_constraint("cap", {{x, 1.0}, {y, 1.0}}, Relation::kLessEqual, 4.0);

  SolveContext auto_ctx;
  const LpSolution cold = LpEngine().solve(model, auto_ctx);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  EXPECT_FALSE(cold.used_dual);
  EXPECT_EQ(cold.dual_pivots, 0);
  EXPECT_NEAR(cold.objective, -4.0, 1e-9);

  SimplexOptions dual_mode;
  dual_mode.mode = SolveMode::kDual;
  SolveContext dual_ctx;
  const LpSolution forced = LpEngine(dual_mode).solve(model, dual_ctx);
  ASSERT_EQ(forced.status, SolveStatus::kOptimal);
  EXPECT_FALSE(forced.used_dual);  // gate rejected the start; primal solved
  EXPECT_NEAR(forced.objective, -4.0, 1e-9);
}

// End-to-end differential: branch-and-bound under forced-primal and
// default-auto LP modes must prove the same optimum, and auto must
// actually run dual re-solves on the node restarts.
TEST(DualSimplex, BranchAndBoundAgreesAcrossLpModes) {
  Rng rng(23);
  Model model;
  const int tasks = 8;
  const int agents = 3;
  std::vector<std::vector<int>> x(static_cast<std::size_t>(tasks));
  std::vector<Term> objective;
  for (int t = 0; t < tasks; ++t) {
    for (int a = 0; a < agents; ++a) {
      const int v = model.add_binary("x_" + std::to_string(t) + "_" +
                                     std::to_string(a));
      x[static_cast<std::size_t>(t)].push_back(v);
      objective.push_back({v, rng.uniform(1.0, 20.0)});
    }
  }
  model.set_objective(Sense::kMinimize, objective);
  for (int t = 0; t < tasks; ++t) {
    std::vector<Term> row;
    for (const int v : x[static_cast<std::size_t>(t)]) row.push_back({v, 1.0});
    model.add_constraint("assign" + std::to_string(t), row, Relation::kEqual,
                         1.0);
  }
  for (int a = 0; a < agents; ++a) {
    std::vector<Term> row;
    for (int t = 0; t < tasks; ++t) {
      row.push_back(
          {x[static_cast<std::size_t>(t)][static_cast<std::size_t>(a)],
           rng.uniform(1.0, 8.0)});
    }
    model.add_constraint("cap" + std::to_string(a), row, Relation::kLessEqual,
                         3.0 * tasks / agents);
  }

  milp::SolverOptions primal_options;
  primal_options.lp.mode = SolveMode::kPrimal;
  milp::SolverOptions auto_options;  // default kAuto

  SolveContext primal_ctx;
  const auto primal =
      milp::BranchAndBoundSolver(primal_options).solve(model, primal_ctx);
  SolveContext auto_ctx;
  const auto dual =
      milp::BranchAndBoundSolver(auto_options).solve(model, auto_ctx);

  ASSERT_EQ(primal.status, milp::MilpStatus::kOptimal);
  ASSERT_EQ(dual.status, milp::MilpStatus::kOptimal);
  EXPECT_NEAR(primal.objective, dual.objective, 1e-6);

  // The simplex subtrees hang off whichever phase ran the LPs (root_lp,
  // cuts, node re-solves), so aggregate over the whole branch_and_bound
  // subtree.
  const SolveStats* bb = auto_ctx.stats().find("branch_and_bound");
  ASSERT_NE(bb, nullptr);
  EXPECT_GT(bb->metric("dual_reopt_nodes"), 0.0);
  EXPECT_GT(bb->deep_metric("dual_solves"), 0.0);
  EXPECT_GT(bb->deep_metric("dual_pivots") + bb->deep_metric("bound_flips"),
            0.0);

  const SolveStats* primal_bb = primal_ctx.stats().find("branch_and_bound");
  ASSERT_NE(primal_bb, nullptr);
  EXPECT_NEAR(primal_bb->metric("dual_reopt_nodes"), 0.0, 1e-9);
  EXPECT_NEAR(primal_bb->deep_metric("dual_solves"), 0.0, 1e-9);
}

// Rebuilds `model` keeping only the variables and constraints the
// predicates admit, preserving names and coefficients — the shape of a
// replan delta that dropped columns and rows from the formulation.
template <typename KeepVar, typename KeepRow>
Model drop_from_model(const Model& model, KeepVar keep_var, KeepRow keep_row) {
  Model out;
  std::vector<int> new_of_old(static_cast<std::size_t>(model.num_variables()),
                              -1);
  std::vector<Term> objective;
  for (int j = 0; j < model.num_variables(); ++j) {
    if (!keep_var(j)) continue;
    const Variable& v = model.variable(j);
    new_of_old[static_cast<std::size_t>(j)] =
        out.add_continuous(v.name, v.lower, v.upper);
  }
  for (const Term& t : model.objective()) {
    const int nj = new_of_old[static_cast<std::size_t>(t.var)];
    if (nj >= 0) objective.push_back({nj, t.coef});
  }
  out.set_objective(model.sense(), objective);
  for (int i = 0; i < model.num_constraints(); ++i) {
    if (!keep_row(i)) continue;
    const Constraint& row = model.constraint(i);
    std::vector<Term> terms;
    for (const Term& t : row.terms) {
      const int nj = new_of_old[static_cast<std::size_t>(t.var)];
      if (nj >= 0) terms.push_back({nj, t.coef});
    }
    out.add_constraint(row.name, terms, row.relation, row.rhs);
  }
  return out;
}

// ---- dual pivot kernels ----------------------------------------------------

// The PreparedLp row copy holds exactly the entries of `columns`, slacks
// included, each row listing its columns in ascending order; rows the
// standard form drops (empty, vacuous) have no row.
TEST(PreparedLpRows, RowCopyMatchesColumns) {
  for (const std::uint64_t seed : {3, 4, 5, 6}) {
    Rng rng(seed);
    Model model;
    const int vars = 30;
    for (int j = 0; j < vars; ++j) {
      model.add_continuous("x" + std::to_string(j), 0.0, 5.0);
    }
    const Relation relations[] = {Relation::kLessEqual,
                                  Relation::kGreaterEqual, Relation::kEqual};
    for (int i = 0; i < 25; ++i) {
      std::vector<Term> terms;
      for (int j = 0; j < vars; ++j) {
        if (rng.uniform() < 0.2) terms.push_back({j, rng.uniform(-3.0, 3.0)});
      }
      if (i % 7 == 3) terms.clear();  // an empty row the form drops
      model.add_constraint("r" + std::to_string(i), terms,
                           relations[i % 3], i % 7 == 3 ? 0.0 : 2.0 * i);
    }
    const PreparedLp prep(model);
    ASSERT_FALSE(prep.trivially_infeasible);
    ASSERT_EQ(prep.row_start.size(),
              static_cast<std::size_t>(prep.num_rows()) + 1);
    std::set<std::tuple<int, int, double>> from_columns;
    for (int j = 0; j < prep.num_columns(); ++j) {
      const SparseColumn& col = prep.columns[static_cast<std::size_t>(j)];
      for (std::size_t e = 0; e < col.rows.size(); ++e) {
        from_columns.insert({col.rows[e], j, col.coefs[e]});
      }
    }
    std::set<std::tuple<int, int, double>> from_rows;
    std::size_t entries = 0;
    for (int i = 0; i < prep.num_rows(); ++i) {
      const auto begin = static_cast<std::size_t>(prep.row_start[static_cast<std::size_t>(i)]);
      const auto end = static_cast<std::size_t>(prep.row_start[static_cast<std::size_t>(i) + 1]);
      ASSERT_LT(begin, end) << "row " << i << " lost its slack";
      for (std::size_t p = begin; p < end; ++p) {
        if (p > begin) {
          EXPECT_LT(prep.row_cols[p - 1], prep.row_cols[p]);
        }
        from_rows.insert({i, prep.row_cols[p], prep.row_coefs[p]});
        ++entries;
      }
    }
    EXPECT_EQ(entries, from_columns.size());
    EXPECT_EQ(prep.row_cols.size(), entries);
    EXPECT_EQ(from_rows, from_columns);
  }
}

/// A random basis over `prep`: the slack basis with up to `swaps` slacks
/// replaced by structural columns, keeping only swaps that factorize.
std::vector<int> random_basis(const PreparedLp& prep, BasisFactorization& lu,
                              Rng& rng, int swaps) {
  const int m = prep.num_rows();
  std::vector<int> basis(static_cast<std::size_t>(m));
  for (int r = 0; r < m; ++r) basis[static_cast<std::size_t>(r)] = prep.num_vars + r;
  for (int t = 0; t < swaps; ++t) {
    const auto pos = static_cast<std::size_t>(rng.uniform_int(0, m - 1));
    const int col = static_cast<int>(rng.uniform_int(0, prep.num_vars - 1));
    if (std::find(basis.begin(), basis.end(), col) != basis.end()) continue;
    const int old = basis[pos];
    basis[pos] = col;
    if (!lu.factorize(prep.columns, basis)) basis[pos] = old;
  }
  EXPECT_TRUE(lu.factorize(prep.columns, basis));
  return basis;
}

// Row-wise PRICE reproduces the column loop bitwise: the same nz list in the
// same (ascending) order and the same alpha bits everywhere, zeros
// included, on sparse and dense LPs with slack-heavy and structural-heavy
// bases, with rho from sparse to dense. Row-wise PRICE reuses one PivotRow
// across calls, as the pivot loop does, so a stale entry from an earlier
// row shows.
TEST(DualPivotRow, RowWiseMatchesColumnWiseBitwise) {
  int dense_rho = 0;
  detail::PivotRow by_rows;
  for (const double density : {0.05, 0.2, 0.8}) {
    for (const std::uint64_t seed : {21, 22, 23}) {
      const Model model = random_boxed_lp(seed, 80, 40, density);
      const PreparedLp prep(model);
      const int m = prep.num_rows();
      const auto lu = make_basis_factorization(m, 1e-9);
      Rng rng(seed * 131 + static_cast<std::uint64_t>(density * 100));
      for (const int swaps : {0, 5, 40, 200}) {
        const std::vector<int> basis = random_basis(prep, *lu, rng, swaps);
        std::vector<BasisVarStatus> status(
            static_cast<std::size_t>(prep.num_columns()),
            BasisVarStatus::kAtLower);
        for (const int b : basis) status[static_cast<std::size_t>(b)] = BasisVarStatus::kBasic;
        for (int r = 0; r < m; r += 3) {
          SCOPED_TRACE("density=" + std::to_string(density) + " seed=" +
                       std::to_string(seed) + " swaps=" +
                       std::to_string(swaps) + " r=" + std::to_string(r));
          std::vector<double> rho(static_cast<std::size_t>(m), 0.0);
          rho[static_cast<std::size_t>(r)] = 1.0;
          lu->btran(rho);
          if (2 * std::count_if(rho.begin(), rho.end(),
                                [](double v) { return v != 0.0; }) > m) {
            ++dense_rho;
          }
          detail::PivotRow by_columns;
          detail::price_columns(prep, rho, status, by_columns);
          detail::price_rows(prep, rho, status, by_rows);
          ASSERT_EQ(by_rows.nz, by_columns.nz);
          ASSERT_EQ(by_rows.alpha.size(), by_columns.alpha.size());
          ASSERT_EQ(std::memcmp(by_rows.alpha.data(), by_columns.alpha.data(),
                                by_rows.alpha.size() * sizeof(double)),
                    0);
        }
      }
    }
  }
  EXPECT_GT(dense_rho, 0);
}

/// Breakpoints of one BFRT ratio test over ascending columns (the order the
/// pivot loop builds them in). `levels` > 0 draws ratios from that many
/// values and |alpha| from four (forcing ties in both), 0 draws them
/// continuously; `zero_share` of them
/// are clamped to zero and a fifth are unboxed.
std::vector<detail::DualBreakpoint> random_breakpoints(Rng& rng, int count,
                                                       int levels,
                                                       double zero_share) {
  std::vector<detail::DualBreakpoint> bps;
  int j = 0;
  for (int k = 0; k < count; ++k) {
    j += static_cast<int>(rng.uniform_int(1, 4));
    double ratio = levels > 0
                       ? 1e-3 * static_cast<double>(rng.uniform_int(0, levels - 1))
                       : rng.uniform(0.0, 1.0);
    if (rng.uniform() < zero_share) ratio = 0.0;
    const double range = rng.uniform() < 0.2
                             ? std::numeric_limits<double>::infinity()
                             : rng.uniform(0.1, 3.0);
    const double abs_alpha = levels > 0
                                 ? 0.25 * static_cast<double>(rng.uniform_int(1, 4))
                                 : rng.uniform(1e-3, 2.0);
    bps.push_back({j, ratio, abs_alpha, range});
  }
  return bps;
}

// The selection walk enters the same column, flips the same columns in
// the same order and makes the same Harris choice as the full sort, on
// breakpoint sets with forced ties (at zero and elsewhere), wide Harris
// windows, long walks and rays where every breakpoint flips. The walk
// leaves its input in place unless it sorts, which tells the two apart: on
// short walks over distinct ratios it never sorts.
TEST(DualBfrt, SelectionWalkMatchesFullSort) {
  const auto by_ratio = [](const detail::DualBreakpoint& a,
                           const detail::DualBreakpoint& b) {
    return a.ratio < b.ratio;
  };
  const auto same_order = [](const std::vector<detail::DualBreakpoint>& a,
                             const std::vector<detail::DualBreakpoint>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const detail::DualBreakpoint& x,
                         const detail::DualBreakpoint& y) { return x.j == y.j; });
  };
  Rng rng(97);
  int selected = 0;
  int rays = 0;
  int long_walks = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const int count = static_cast<int>(rng.uniform_int(0, 300));
    // A third continuous, a third on a grid of ratios, a third with a
    // tenth clamped to zero as d_ drift makes them.
    const int levels = trial % 3 == 1 ? static_cast<int>(rng.uniform_int(2, 400)) : 0;
    std::vector<detail::DualBreakpoint> bps =
        random_breakpoints(rng, count, levels, trial % 3 == 2 ? 0.1 : 0.0);
    if (trial % 5 == 1) {
      for (auto& bp : bps) bp.range = std::min(bp.range, 1.0);  // all boxed
    }
    double total_drop = 0.0;
    for (const auto& bp : bps) {
      if (std::isfinite(bp.range)) total_drop += bp.range * bp.abs_alpha;
    }
    // Slopes from nothing to beyond every finite drop (rays when every
    // breakpoint is boxed), and dtol wide enough on some trials to pull
    // many breakpoints into the Harris window.
    const double slope = rng.uniform(0.0, 1.2) * total_drop + 1e-6;
    const double dtol = trial % 4 == 0 ? 1e-2 : trial % 4 == 2 ? 2e-3 : 1e-7;
    std::vector<detail::DualBreakpoint> sorted = bps;
    std::vector<detail::DualBreakpoint> walked = bps;
    std::vector<int> sorted_flips;
    std::vector<int> walked_flips;
    const int reference =
        detail::bfrt_sorted(sorted, slope, 1e-9, dtol, sorted_flips);
    const int entering =
        detail::bfrt_select(walked, slope, 1e-9, dtol, walked_flips);
    SCOPED_TRACE("trial " + std::to_string(trial));
    ASSERT_EQ(entering, reference);
    ASSERT_EQ(walked_flips, sorted_flips);
    if (!std::is_sorted(bps.begin(), bps.end(), by_ratio) &&
        same_order(walked, bps)) {
      ++selected;
    }
    if (reference < 0) ++rays;
    if (sorted_flips.size() > 8) ++long_walks;
  }
  EXPECT_GT(selected, 500);
  EXPECT_GT(rays, 10);
  EXPECT_GT(long_walks, 100);

  // Harris ties: a unique entering breakpoint, then a few with one ratio and
  // one |alpha| larger than the entering one inside its window, scattered
  // among far breakpoints. Which of them the sort puts first picks the
  // entering column, so the walk must see the tie and sort.
  for (int trial = 0; trial < 400; ++trial) {
    const int count = static_cast<int>(rng.uniform_int(40, 300));
    std::vector<detail::DualBreakpoint> bps =
        random_breakpoints(rng, count, 0, 0.0);
    for (auto& bp : bps) {
      bp.ratio = rng.uniform(1.0, 2.0);
      bp.abs_alpha = 0.5;
      bp.range = std::numeric_limits<double>::infinity();
    }
    const auto pick = [&] {
      return static_cast<std::size_t>(rng.uniform_int(0, count - 1));
    };
    bps[pick()].ratio = 0.1;
    for (int t = 0; t < 3; ++t) {
      const std::size_t k = pick();
      if (bps[k].ratio == 0.1) continue;
      bps[k].ratio = 0.1005;
      bps[k].abs_alpha = 1.0;
    }
    std::vector<detail::DualBreakpoint> sorted = bps;
    std::vector<int> sorted_flips;
    std::vector<int> flips;
    const int reference =
        detail::bfrt_sorted(sorted, 1.0, 1e-9, 1e-3, sorted_flips);
    ASSERT_EQ(detail::bfrt_select(bps, 1.0, 1e-9, 1e-3, flips), reference)
        << "trial " << trial;
  }

  // Distinct unsorted ratios spread far beyond dtol and walks of up to
  // three flips: selection, never the sort.
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<detail::DualBreakpoint> bps =
        random_breakpoints(rng, 64 + trial, 0, 0.0);
    for (std::size_t k = 0; k < bps.size(); ++k) {
      bps[k].ratio = 0.01 * static_cast<double>((k * 127) % bps.size()) + 0.5;
      bps[k].abs_alpha = 1.0;
      bps[k].range = 1.0;
    }
    const std::vector<detail::DualBreakpoint> input = bps;
    std::vector<detail::DualBreakpoint> sorted = bps;
    std::vector<int> sorted_flips;
    std::vector<int> flips;
    const double slope = trial % 4 + 0.5;  // each flip drops 1
    const int reference =
        detail::bfrt_sorted(sorted, slope, 1e-9, 1e-7, sorted_flips);
    EXPECT_EQ(detail::bfrt_select(bps, slope, 1e-9, 1e-7, flips), reference);
    EXPECT_EQ(flips, sorted_flips);
    EXPECT_EQ(flips.size(), static_cast<std::size_t>(trial % 4));
    EXPECT_TRUE(same_order(bps, input)) << "trial " << trial << " sorted";
  }
}

// A basis named against a model and remapped back onto the same model must
// reproduce the optimal basis exactly: the warm solve starts optimal.
TEST(NamedBasis, RoundTripOnSameModelStartsOptimal) {
  const Model model = random_boxed_lp(71, 50, 25, 0.3);
  const LpEngine engine;
  SolveContext cold_ctx;
  const LpSolution cold = engine.solve(model, cold_ctx);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  ASSERT_NE(cold.basis, nullptr);

  const NamedBasis named = name_basis(model, *cold.basis);
  EXPECT_EQ(static_cast<int>(named.variables.size()), model.num_variables());
  const auto mapped = remap_basis(named, model);
  ASSERT_TRUE(mapped.has_value());

  const PreparedLp prep(model);
  SolveContext warm_ctx;
  const LpSolution warm =
      engine.solve(prep, model_lowers(model), model_uppers(model), warm_ctx,
                   LpStartBasis(&*mapped, LpStartBasis::Origin::kBoundChange));
  ASSERT_EQ(warm.status, SolveStatus::kOptimal);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-6);
  EXPECT_LT(warm.iterations, cold.iterations);
}

// Remapping across a delta that removed columns and a row: the carried
// basis (repaired if the survivors went singular) must warm-start the new
// LP and land on the same optimum a cold solve finds.
TEST(NamedBasis, RemapSurvivesDroppedColumnsAndRows) {
  const std::uint64_t seeds[] = {21, 22, 23, 24};
  int warm_runs = 0;
  for (const std::uint64_t seed : seeds) {
    const Model model = random_boxed_lp(seed, 60, 30, 0.3);
    const LpEngine engine;
    SolveContext base_ctx;
    const LpSolution base = engine.solve(model, base_ctx);
    ASSERT_EQ(base.status, SolveStatus::kOptimal) << "seed " << seed;
    const NamedBasis named = name_basis(model, *base.basis);

    // Drop every 9th variable and two rows — a "pin" style delta.
    const Model target = drop_from_model(
        model, [](int j) { return j % 9 != 0; },
        [](int i) { return i != 4 && i != 17; });
    const auto mapped = remap_basis(named, target);
    ASSERT_TRUE(mapped.has_value()) << "seed " << seed;

    const PreparedLp prep(target);
    SolveContext cold_ctx;
    const LpSolution cold =
        engine.solve(prep, model_lowers(target), model_uppers(target),
                     cold_ctx);
    SolveContext warm_ctx;
    const LpSolution warm = engine.solve(
        prep, model_lowers(target), model_uppers(target), warm_ctx,
        LpStartBasis(&*mapped, LpStartBasis::Origin::kBoundChange));
    ASSERT_EQ(cold.status, SolveStatus::kOptimal) << "seed " << seed;
    ASSERT_EQ(warm.status, SolveStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(warm.objective, cold.objective, 1e-6) << "seed " << seed;
    if (warm.warm_started) ++warm_runs;
  }
  // The repair may reject an occasional degenerate map, but a name-based
  // carry-over that never applies would be broken.
  EXPECT_GT(warm_runs, 0);
}

// Malformed inputs: a snapshot that does not match the model's standard
// form is an input error for name_basis, and a NamedBasis whose recorded
// shape disagrees with its snapshot remaps to nullopt.
TEST(NamedBasis, RejectsMalformedShapes) {
  const Model model = random_boxed_lp(31, 20, 10, 0.4);
  const LpEngine engine;
  SolveContext ctx;
  const LpSolution sol = engine.solve(model, ctx);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);

  BasisSnapshot truncated = *sol.basis;
  truncated.basic_columns.pop_back();
  EXPECT_THROW((void)name_basis(model, truncated), etransform::InvalidInputError);

  NamedBasis inconsistent = name_basis(model, *sol.basis);
  inconsistent.variables.pop_back();
  EXPECT_FALSE(remap_basis(inconsistent, model).has_value());
}

}  // namespace
}  // namespace etransform::lp
