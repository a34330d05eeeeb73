// The paper's measurement protocol, driven directly through the layers'
// public calls: scenario builders, then algo::build_offline_lp /
// algo::solve_offline / sim::Simulator::score for the offline-opt
// denominator, then sim::Simulator::run once per roster algorithm, each
// wrapped in a TimedAlgorithm. One call runs one "round" of a workload: one
// pass over the instance set its seed generates.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "model/instance.h"

namespace e2e {

// Feasibility tolerance of every online allocation (the repository's
// feasibility tolerance).
inline constexpr double kOnlineViolationTol = 1e-5;

struct WorkloadSpec {
  std::string name;
  // The paper's Fig. 2 protocol: taxi mobility on the six hour cases of the
  // default trace, each scored against offline-opt. Otherwise random-walk
  // instances drawn from the workload seed, online algorithms only.
  bool taxi = false;
  std::size_t users = 0;
  std::size_t slots = 0;
  std::size_t instances = 1;  // per run; every round repeats the same set
  std::vector<std::string> roster;  // names from sim::paper_algorithms(true)
  // The hot loop streams through the last-level cache (the Newton assembly
  // over I·J) rather than working in cache (dense IPM systems, the PDHG
  // SpMV at this size); selects the reference kernel the timings are
  // stated in (main.cc).
  bool streams_llc = false;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

// The workload's instance set: generated from the seed alone, and for the
// taxi protocol from the default trace alone (README.md, "Workloads").
std::vector<eca::model::Instance> build_instances(const WorkloadSpec& spec,
                                                  std::uint64_t seed);

struct AlgorithmRun {
  std::string name;
  double cost = 0.0;      // weighted P0 total
  double run_s = 0.0;     // Simulator::run, reset included
  double blocked_s = 0.0;  // decorated decide + reset on the driving thread
  std::vector<double> decide_s;
  double max_violation = 0.0;  // worst per-slot allocation violation
  std::size_t failed_decides = 0;
};

struct InstanceRun {
  std::string label;
  bool has_offline = false;
  double offline_objective = 0.0;  // LP objective
  double offline_cost = 0.0;       // scored P0 cost: the ratio denominator
  double offline_violation = 0.0;
  int offline_iterations = 0;
  std::string offline_status;
  bool offline_cap_hit = false;
  bool offline_failed = false;
  std::size_t offline_rows = 0;
  std::size_t offline_nnz = 0;
  double build_lp_s = 0.0;
  double solve_s = 0.0;
  double score_s = 0.0;
  std::vector<AlgorithmRun> runs;
};

struct RoundResult {
  double wall_s = 0.0;   // the whole round, set-up included, probes excluded
  std::vector<double> probe_s;  // values the probe returned, in call order
  double setup_s = 0.0;  // building the round's instances
  std::size_t clouds = 0;  // I of the instances
  std::vector<InstanceRun> instances;
  // Correctness misses that are not a failed operation (e.g. an online
  // cost below the offline optimum).
  std::vector<std::string> check_misses;
};

// Runs one round under a "bench.round" trace span (a no-op when no global
// trace session is installed); the checks run after the span closes. A
// non-empty `probe` is called before every instance and after the last,
// outside the round's wall time; main.cc times its reference kernel there.
RoundResult run_round(const WorkloadSpec& spec, std::uint64_t seed,
                      const std::function<double()>& probe = {});

// Layer charged by each benchmark span (see ledger.h); "" for the
// program's own spans.
std::string layer_of_span(const std::string& span_name);

}  // namespace e2e
