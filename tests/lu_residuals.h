// Residual oracle for basis engines, shared by the LU and simplex tests.
#pragma once

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/random.h"
#include "lp/basis.h"

namespace etransform::lp {

/// For pseudo-random b and c in [-1, 1] drawn from `rng`, returns
/// {max_i |(B x - b)_i| with x = ftran(b), max_k |(B^T y - c)_k| with
/// y = btran(c)}, where B's k-th column is columns[basis[k]] and `engine`
/// has factorized that B.
inline std::pair<double, double> lu_residuals(
    const BasisFactorization& engine, const std::vector<SparseColumn>& columns,
    const std::vector<int>& basis, Rng& rng) {
  const auto m = basis.size();
  std::vector<double> b(m);
  std::vector<double> c(m);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  for (auto& v : c) v = rng.uniform(-1.0, 1.0);
  std::vector<double> x = b;
  engine.ftran(x);
  std::vector<double> y = c;
  engine.btran(y);
  std::vector<double> bx(m, 0.0);
  double btran_res = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    const SparseColumn& col = columns[static_cast<std::size_t>(basis[k])];
    double bty = 0.0;
    for (std::size_t e = 0; e < col.rows.size(); ++e) {
      const auto i = static_cast<std::size_t>(col.rows[e]);
      bx[i] += col.coefs[e] * x[k];
      bty += col.coefs[e] * y[i];
    }
    btran_res = std::max(btran_res, std::abs(bty - c[k]));
  }
  double ftran_res = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    ftran_res = std::max(ftran_res, std::abs(bx[i] - b[i]));
  }
  return {ftran_res, btran_res};
}

}  // namespace etransform::lp
