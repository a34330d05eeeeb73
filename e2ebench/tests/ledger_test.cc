// Self-time fold on synthetic spans: nested, sibling, multi-thread and
// out-of-root layouts, plus a parse round trip through TraceSession.
#include "ledger.h"

#include <gtest/gtest.h>

#include <sstream>

#include "obs/trace.h"

namespace e2e {
namespace {

// Layers opened by the test's "bench" spans; everything else inherits.
std::string test_layer(const std::string& name) {
  if (name == "root") return "bench";
  if (name == "x" || name == "y") return name;
  return "";
}

Span span(const char* name, std::uint64_t start, std::uint64_t end,
          std::uint32_t tid = 0) {
  return {name, start, end - start, tid};
}

double layer(const std::map<std::string, double>& m, const char* name) {
  const auto it = m.find(name);
  return it == m.end() ? 0.0 : it->second;
}

TEST(Ledger, NestedSpansChargeSelfTimeToEnclosingLayer) {
  // root [0,100] > x [10,60] > leaf [20,40]; the leaf opens no layer, so
  // its self time is charged to x.
  const Ledger ledger = fold_spans(
      {span("leaf", 20, 40), span("root", 0, 100), span("x", 10, 60)}, "root",
      test_layer);
  EXPECT_DOUBLE_EQ(ledger.wall_s, 100e-9);
  EXPECT_DOUBLE_EQ(layer(ledger.span_self_s, "root"), 50e-9);
  EXPECT_DOUBLE_EQ(layer(ledger.span_self_s, "x"), 30e-9);
  EXPECT_DOUBLE_EQ(layer(ledger.span_self_s, "leaf"), 20e-9);
  EXPECT_DOUBLE_EQ(layer(ledger.layer_self_s, "x"), 50e-9);
  EXPECT_DOUBLE_EQ(layer(ledger.layer_self_s, "bench"), 50e-9);
  EXPECT_DOUBLE_EQ(ledger.coverage("bench"), 0.5);
}

TEST(Ledger, SiblingsAndSharedStartsFoldExactly) {
  // x starts with the root, y starts exactly where x ends, and a leaf
  // starts with y: none of them overlap, so self times sum to the wall.
  const Ledger ledger = fold_spans(
      {span("root", 0, 100), span("x", 0, 30), span("y", 30, 80),
       span("leaf", 30, 50), span("leaf", 50, 80)},
      "root", test_layer);
  EXPECT_DOUBLE_EQ(layer(ledger.span_self_s, "x"), 30e-9);
  EXPECT_DOUBLE_EQ(layer(ledger.span_self_s, "y"), 0.0);
  EXPECT_DOUBLE_EQ(layer(ledger.span_self_s, "leaf"), 50e-9);
  EXPECT_DOUBLE_EQ(layer(ledger.layer_self_s, "y"), 50e-9);
  EXPECT_DOUBLE_EQ(layer(ledger.layer_self_s, "bench"), 20e-9);
  double total = 0.0;
  for (const auto& [name, seconds] : ledger.layer_self_s) total += seconds;
  EXPECT_DOUBLE_EQ(total, ledger.wall_s);
  EXPECT_DOUBLE_EQ(ledger.coverage("bench"), 0.8);
}

TEST(Ledger, WorkerThreadsFoldSeparatelyFromTheRootThread) {
  // Thread 1 overlaps the root's wall clock; it must not inflate the root
  // thread's ledger, and its own nesting folds independently.
  const Ledger ledger = fold_spans(
      {span("root", 0, 100, 0), span("x", 10, 90, 0), span("y", 20, 70, 1),
       span("leaf", 30, 40, 1), span("leaf", 50, 60, 0)},
      "root", test_layer);
  EXPECT_DOUBLE_EQ(layer(ledger.layer_self_s, "x"), 80e-9);
  EXPECT_DOUBLE_EQ(layer(ledger.layer_self_s, "y"), 0.0);
  EXPECT_DOUBLE_EQ(layer(ledger.worker_layer_self_s, "y"), 50e-9);
  EXPECT_DOUBLE_EQ(layer(ledger.span_self_s, "leaf"), 20e-9);
  EXPECT_DOUBLE_EQ(ledger.coverage("bench"), 0.8);
}

TEST(Ledger, SpansOutsideTheRootAreNotCharged) {
  const Ledger ledger = fold_spans(
      {span("x", 0, 10), span("root", 20, 120), span("x", 30, 50),
       span("leaf", 200, 230)},
      "root", test_layer);
  EXPECT_DOUBLE_EQ(layer(ledger.layer_self_s, "unattributed"), 0.0);
  EXPECT_DOUBLE_EQ(layer(ledger.layer_self_s, "x"), 20e-9);
  EXPECT_DOUBLE_EQ(ledger.coverage("bench"), 0.2);
}

TEST(Ledger, MissingRootYieldsAnEmptyLedger) {
  const Ledger ledger = fold_spans({span("x", 0, 10)}, "root", test_layer);
  EXPECT_EQ(ledger.wall_s, 0.0);
  EXPECT_TRUE(ledger.layer_self_s.empty());
  EXPECT_EQ(ledger.coverage("bench"), 0.0);
}

std::uint64_t g_now = 1'000'000'000'000ULL;
std::uint64_t fake_clock() { return g_now; }

TEST(Ledger, ParsesTraceSessionOutput) {
  eca::obs::TraceOptions options;
  options.clock = &fake_clock;
  eca::obs::TraceSession session(options);
  session.record("root", g_now, 1'000'000);
  session.record("x", g_now + 123'457, 500'001, "t", 3.0);
  std::stringstream text;
  session.flush_to(text);
  const std::vector<Span> spans = parse_trace(text);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "root");
  EXPECT_EQ(spans[0].start_ns, g_now);
  EXPECT_EQ(spans[0].dur_ns, 1'000'000u);
  EXPECT_EQ(spans[1].name, "x");
  EXPECT_EQ(spans[1].start_ns, g_now + 123'457);
  EXPECT_EQ(spans[1].dur_ns, 500'001u);
  const Ledger ledger = fold_spans(spans, "root", test_layer);
  EXPECT_NEAR(ledger.coverage("bench"), 0.500001, 1e-12);
}

}  // namespace
}  // namespace e2e
