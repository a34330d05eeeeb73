// Protocol parity on tiny instances: the benchmark's directly driven round
// reproduces sim::run_experiment's costs and ratios bit for bit, and a
// TimedAlgorithm leaves Simulator::run's result unchanged, also with the
// baseline slot fan-out forced on.
#include <gtest/gtest.h>

#include <cstring>

#include "protocol.h"
#include "sim/runner.h"
#include "sim/simulator.h"
#include "timed_algorithm.h"

namespace e2e {
namespace {

using eca::sim::SimulationResult;

const std::vector<std::string> kRoster = {"static-once", "perf-opt",
                                          "oper-opt",    "stat-opt",
                                          "online-greedy", "online-approx"};

WorkloadSpec tiny_taxi() {
  return {.name = "tiny-taxi",
          .taxi = true,
          .users = 4,
          .slots = 5,
          .instances = 2,
          .roster = kRoster};
}

TEST(Parity, DirectRoundMatchesRunExperimentBitForBit) {
  const WorkloadSpec spec = tiny_taxi();
  const std::uint64_t seed = 7;
  const RoundResult round = run_round(spec, seed);
  const std::vector<eca::model::Instance> instances =
      build_instances(spec, seed);
  ASSERT_EQ(round.instances.size(), instances.size());
  std::vector<eca::sim::NamedFactory> roster;
  for (const eca::sim::NamedFactory& f :
       eca::sim::paper_algorithms(/*include_static_once=*/true)) {
    roster.push_back(f);
  }
  for (std::size_t k = 0; k < instances.size(); ++k) {
    eca::sim::ExperimentOptions options;
    options.repetitions = 1;
    options.threads = 1;
    const eca::sim::ExperimentResult expected = eca::sim::run_experiment(
        [&](int) { return instances[k]; }, roster, options);
    const InstanceRun& run = round.instances[k];
    EXPECT_EQ(run.offline_cost, expected.offline_cost.mean());
    ASSERT_EQ(run.runs.size(), kRoster.size());
    for (const AlgorithmRun& alg : run.runs) {
      const eca::sim::AlgorithmSummary* summary = expected.find(alg.name);
      ASSERT_NE(summary, nullptr) << alg.name;
      EXPECT_EQ(alg.cost, summary->absolute_cost.mean()) << alg.name;
      EXPECT_EQ(alg.cost / run.offline_cost, summary->ratio.mean())
          << alg.name;
      EXPECT_EQ(alg.decide_s.size(), spec.slots) << alg.name;
    }
  }
  EXPECT_TRUE(round.check_misses.empty());
}

eca::algo::AlgorithmPtr make(const std::string& name) {
  for (const eca::sim::NamedFactory& f :
       eca::sim::paper_algorithms(/*include_static_once=*/true)) {
    if (f.name == name) return f.make();
  }
  return nullptr;
}

// Everything in a SimulationResult except wall-clock timings.
void expect_same_result(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.weighted_total, b.weighted_total);
  EXPECT_EQ(a.cost.operation, b.cost.operation);
  EXPECT_EQ(a.cost.service_quality, b.cost.service_quality);
  EXPECT_EQ(a.cost.reconfiguration, b.cost.reconfiguration);
  EXPECT_EQ(a.cost.migration, b.cost.migration);
  EXPECT_EQ(a.per_slot, b.per_slot);
  EXPECT_EQ(a.max_violation, b.max_violation);
  ASSERT_EQ(a.allocations.size(), b.allocations.size());
  for (std::size_t t = 0; t < a.allocations.size(); ++t) {
    EXPECT_EQ(a.allocations[t].x, b.allocations[t].x) << "slot " << t;
  }
  ASSERT_EQ(a.telemetry.slots.size(), b.telemetry.slots.size());
  for (std::size_t t = 0; t < a.telemetry.slots.size(); ++t) {
    const auto& sa = a.telemetry.slots[t];
    const auto& sb = b.telemetry.slots[t];
    EXPECT_EQ(sa.cost_total(), sb.cost_total());
    EXPECT_EQ(sa.has_solve, sb.has_solve);
    EXPECT_EQ(sa.solve.newton_iterations, sb.solve.newton_iterations);
    EXPECT_EQ(sa.solve.mu_steps, sb.solve.mu_steps);
    EXPECT_EQ(sa.solve.warm_started, sb.solve.warm_started);
    EXPECT_EQ(sa.solve.kkt_dual_residual, sb.solve.kkt_dual_residual);
  }
}

class DecoratorParity : public ::testing::TestWithParam<std::string> {};

TEST_P(DecoratorParity, DecoratedRunEqualsUndecorated) {
  WorkloadSpec spec = tiny_taxi();
  spec.taxi = false;
  spec.users = 6;
  spec.slots = 9;  // three warm-start blocks
  const eca::model::Instance instance = build_instances(spec, 3)[0];
  // Serial, then with the slot fan-out forced onto three workers.
  eca::sim::SimulatorOptions fan_out;
  fan_out.baseline_threads = 3;
  fan_out.min_slot_work = 1;
  fan_out.oversubscribe = true;
  for (const eca::sim::SimulatorOptions& options :
       {eca::sim::SimulatorOptions{}, fan_out}) {
    eca::algo::AlgorithmPtr plain = make(GetParam());
    ASSERT_NE(plain, nullptr);
    TimedAlgorithm timed(make(GetParam()), "bench.test_decide",
                         "bench.test_reset");
    EXPECT_EQ(timed.name(), plain->name());
    EXPECT_EQ(timed.slot_separable(), plain->slot_separable());
    EXPECT_EQ(timed.clone_for_slots() == nullptr,
              plain->clone_for_slots() == nullptr);
    const SimulationResult expected =
        eca::sim::Simulator::run(instance, *plain, options);
    const SimulationResult got =
        eca::sim::Simulator::run(instance, timed, options);
    expect_same_result(got, expected);
    EXPECT_EQ(timed.recorder().decide_seconds().size(), spec.slots);
  }
}

INSTANTIATE_TEST_SUITE_P(Roster, DecoratorParity, ::testing::ValuesIn(kRoster),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace e2e
