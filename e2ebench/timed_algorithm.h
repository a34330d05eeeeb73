// Benchmark-side decorator around an online algorithm: times reset() and
// every decide() and wraps each in a trace span, forwarding the rest of the
// OnlineAlgorithm interface unchanged, so a decorated run produces the same
// SimulationResult as an undecorated one.
#pragma once

#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "algo/algorithm.h"

namespace e2e {

// Timings of one decorated algorithm and of its slot clones. Clones may
// decide on worker threads, so recording is guarded; only samples taken on
// the driving thread (the one that constructed the recorder) count towards
// the time Simulator::run spent blocked in the algorithm.
class DecideRecorder {
 public:
  void add_decide(double seconds);
  void add_reset(double seconds);

  // Per-decide latencies in call order, seconds.
  [[nodiscard]] std::vector<double> decide_seconds() const;
  // Decide + reset seconds spent on the driving thread.
  [[nodiscard]] double owner_seconds() const;

 private:
  const std::thread::id owner_ = std::this_thread::get_id();
  mutable std::mutex mutex_;
  std::vector<double> decide_seconds_;
  double owner_seconds_ = 0.0;
};

class TimedAlgorithm final : public eca::algo::OnlineAlgorithm {
 public:
  // `decide_span` / `reset_span` name the trace spans (string literals).
  TimedAlgorithm(eca::algo::AlgorithmPtr inner, const char* decide_span,
                 const char* reset_span,
                 std::shared_ptr<DecideRecorder> recorder =
                     std::make_shared<DecideRecorder>());

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void reset(const eca::model::Instance& instance) override;
  [[nodiscard]] eca::model::Allocation decide(
      const eca::model::Instance& instance, std::size_t t,
      const eca::model::Allocation& previous) override;
  [[nodiscard]] const eca::obs::SolveTelemetry* last_decide_telemetry()
      const override {
    return inner_->last_decide_telemetry();
  }
  [[nodiscard]] bool slot_separable() const override {
    return inner_->slot_separable();
  }
  // Decorates the inner clone with the same recorder (nullptr when the
  // inner algorithm cannot clone).
  [[nodiscard]] eca::algo::AlgorithmPtr clone_for_slots() const override;

  [[nodiscard]] const DecideRecorder& recorder() const { return *recorder_; }

 private:
  eca::algo::AlgorithmPtr inner_;
  const char* decide_span_;
  const char* reset_span_;
  std::shared_ptr<DecideRecorder> recorder_;
};

}  // namespace e2e
