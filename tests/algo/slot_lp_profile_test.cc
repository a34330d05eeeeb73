// The interior-point solver factors the slot LPs' normal matrices in their
// profile (envelope). Two properties keep that both exact and cheap:
//
// * bit-identity — on the static and greedy slot LPs at J=64, under
//   interior-point-like scalings Θ, the profile assembly, factor and solves
//   agree byte for byte with the dense loops they replaced;
// * a linear envelope — the slot-LP builders list the J disjoint demand rows
//   first, so the envelope holds at most J + (coupling rows)·m entries. A
//   builder that reordered its rows would bring back the O(m³) dense cost;
//   the size pin below fails first.
#include <cmath>

#include <gtest/gtest.h>

#include "../linalg/dense_cholesky_reference.h"
#include "agg/aggregate.h"
#include "agg/user_classes.h"
#include "algo/slot_lp.h"
#include "common/rng.h"
#include "sim/scenario.h"
#include "solve/ipm_lp.h"

namespace eca::algo {
namespace {

using linalg::Vec;
using linalg::testing::Csc;
using model::Allocation;
using model::Instance;

Instance walk_instance(std::size_t users) {
  sim::ScenarioOptions options;
  options.num_users = users;
  options.num_slots = 3;
  options.seed = 11;
  return sim::make_random_walk_instance(options);
}

// Every user's demand split evenly over the clouds: no greedy split
// variable s_{i,j} ∈ [0, prev] is fixed at zero.
Allocation spread_allocation(const Instance& instance) {
  Allocation prev(instance.num_clouds, instance.num_users);
  for (std::size_t i = 0; i < instance.num_clouds; ++i) {
    for (std::size_t j = 0; j < instance.num_users; ++j) {
      prev.at(i, j) = instance.demand[j] / static_cast<double>(instance.num_clouds);
    }
  }
  return prev;
}

// The IPM's standard-form A for an LP whose variables are all free and
// whose rows are all one-sided: the LP's columns (entries in triplet
// order), then one slack per row (−1 on a ≥ row, +1 on a ≤ row).
Csc standard_form(const solve::LpProblem& lp) {
  std::vector<std::vector<std::pair<std::size_t, double>>> columns(lp.num_vars);
  for (const auto& t : lp.elements) columns[t.col].push_back({t.row, t.value});
  Csc a;
  a.rows = lp.num_rows;
  for (std::size_t j = 0; j < lp.num_vars; ++j) {
    EXPECT_GT(lp.var_upper[j] - lp.var_lower[j], 1e-12);
    a.add_column(columns[j]);
  }
  for (std::size_t r = 0; r < lp.num_rows; ++r) {
    EXPECT_TRUE(lp.row_lower[r] == -solve::kInf || lp.row_upper[r] == solve::kInf);
    a.add_column({{r, lp.row_upper[r] == solve::kInf ? -1.0 : 1.0}});
  }
  return a;
}

// Scalings across an interior-point run: near 1 at the start, spread over
// ever more decades as variables settle at a bound (Θ → 0) or in the
// basis (Θ → ∞); the regularization grows with μ.
void expect_normal_matches_dense(const solve::LpProblem& lp) {
  const Csc a = standard_form(lp);
  Rng rng(5);
  for (double decades : {0.3, 4.0, 8.0, 12.0}) {
    Vec theta(a.cols());
    for (auto& t : theta) t = std::pow(10.0, rng.uniform(-decades, decades));
    Vec rhs(a.rows);
    for (auto& v : rhs) v = rng.uniform(-1.0, 1.0);
    const double reg = 1e-10 * (1.0 + std::pow(10.0, -decades));
    linalg::testing::expect_normal_solve_matches_dense(a, theta, reg, rhs);
  }
}

TEST(SlotLpProfile, StaticNormalMatrixMatchesDenseLoopsBitwise) {
  const Instance instance = walk_instance(64);
  expect_normal_matches_dense(build_static_slot_lp(instance, 1, true, true).lp);
}

TEST(SlotLpProfile, GreedyNormalMatrixMatchesDenseLoopsBitwise) {
  const Instance instance = walk_instance(64);
  const Allocation prev = spread_allocation(instance);
  expect_normal_matches_dense(build_greedy_slot_lp(instance, 1, prev).lp);
}

std::size_t solved_profile_size(const solve::LpProblem& lp) {
  solve::IpmWorkspace ws;
  const solve::LpSolution sol = solve::InteriorPointLp().solve(lp, ws);
  EXPECT_EQ(sol.status, solve::SolveStatus::kOptimal);
  return ws.normal_profile_size();
}

TEST(SlotLpProfile, EnvelopeIsLinearInUsers) {
  const Instance instance = walk_instance(64);
  const std::size_t kJ = instance.num_users;
  const std::size_t kI = instance.num_clouds;

  // Static: J demand rows, I capacity rows.
  const std::size_t static_m = kJ + kI;
  EXPECT_LE(solved_profile_size(build_static_slot_lp(instance, 1, true, true).lp),
            kJ + kI * static_m);

  // Greedy: J demand rows, I capacity rows, I reconfiguration rows; both
  // with every split variable free and with the zero-previous slot 0.
  const std::size_t greedy_m = kJ + 2 * kI;
  for (const Allocation& prev :
       {spread_allocation(instance), Allocation(kI, kJ)}) {
    EXPECT_LE(solved_profile_size(build_greedy_slot_lp(instance, 1, prev).lp),
              kJ + 2 * kI * greedy_m);
  }

  // Class-collapsed static LP: C class demand rows, I capacity rows.
  const agg::ClassPartition part = agg::build_static_classes(instance, 1);
  const std::size_t kC = part.num_classes;
  EXPECT_LE(solved_profile_size(
                agg::build_collapsed_static_lp(instance, 1, part, true, true)),
            kC + kI * (kC + kI));
}

}  // namespace
}  // namespace eca::algo
