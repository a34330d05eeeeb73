#include "timed_algorithm.h"

#include <chrono>

#include "obs/trace.h"

namespace e2e {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

void DecideRecorder::add_decide(double seconds) {
  const bool on_owner = std::this_thread::get_id() == owner_;
  std::lock_guard<std::mutex> lock(mutex_);
  decide_seconds_.push_back(seconds);
  if (on_owner) owner_seconds_ += seconds;
}

void DecideRecorder::add_reset(double seconds) {
  const bool on_owner = std::this_thread::get_id() == owner_;
  std::lock_guard<std::mutex> lock(mutex_);
  if (on_owner) owner_seconds_ += seconds;
}

std::vector<double> DecideRecorder::decide_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return decide_seconds_;
}

double DecideRecorder::owner_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return owner_seconds_;
}

TimedAlgorithm::TimedAlgorithm(eca::algo::AlgorithmPtr inner,
                               const char* decide_span, const char* reset_span,
                               std::shared_ptr<DecideRecorder> recorder)
    : inner_(std::move(inner)),
      decide_span_(decide_span),
      reset_span_(reset_span),
      recorder_(std::move(recorder)) {}

void TimedAlgorithm::reset(const eca::model::Instance& instance) {
  eca::obs::TraceSpan span(eca::obs::global_trace(), reset_span_);
  const auto start = std::chrono::steady_clock::now();
  inner_->reset(instance);
  recorder_->add_reset(seconds_since(start));
}

eca::model::Allocation TimedAlgorithm::decide(
    const eca::model::Instance& instance, std::size_t t,
    const eca::model::Allocation& previous) {
  eca::obs::TraceSpan span(eca::obs::global_trace(), decide_span_);
  const auto start = std::chrono::steady_clock::now();
  eca::model::Allocation out = inner_->decide(instance, t, previous);
  recorder_->add_decide(seconds_since(start));
  return out;
}

eca::algo::AlgorithmPtr TimedAlgorithm::clone_for_slots() const {
  eca::algo::AlgorithmPtr clone = inner_->clone_for_slots();
  if (clone == nullptr) return nullptr;
  return std::make_unique<TimedAlgorithm>(std::move(clone), decide_span_,
                                          reset_span_, recorder_);
}

}  // namespace e2e
