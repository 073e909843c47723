// Tests for obs tracing — ring buffers, the Chrome-trace exporter, and
// the self-time profile.  Load-bearing claims: disabled means no spans,
// a full ring drops the oldest spans and counts them, the exported JSON
// is structurally valid Chrome Trace Event Format (paired B/E, monotone
// ts), and self time subtracts exactly the same-thread child time.
//
// Trace state is process-global: every test resets it and leaves obs
// disabled.  Wraparound runs in a fresh thread because ring capacity only
// applies to newly created per-thread buffers.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>

#include "obs/obs.h"

namespace tsufail::obs {
namespace {

constexpr std::size_t kDefaultCapacity = std::size_t{1} << 17;

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_trace_capacity(kDefaultCapacity);
    reset_trace();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    reset_trace();
    set_trace_capacity(kDefaultCapacity);
  }
};

/// Spans recorded under `name` across all threads of a snapshot.
std::size_t count_spans(const TraceSnapshot& snapshot, std::string_view name) {
  std::size_t count = 0;
  for (const auto& thread : snapshot.threads) {
    for (const auto& span : thread.spans) {
      if (span.name == name) ++count;
    }
  }
  return count;
}

TEST_F(TraceTest, DisabledRecordsNothing) {
  set_enabled(false);
  { OBS_SPAN("trace_test.disabled"); }
  set_enabled(true);
  EXPECT_EQ(count_spans(collect_trace(), "trace_test.disabled"), 0u);
}

TEST_F(TraceTest, SpanCapturesOrderedTimestamps) {
  const std::uint64_t before = now_ns();
  { OBS_SPAN("trace_test.basic"); }
  const std::uint64_t after = now_ns();

  const auto snapshot = collect_trace();
  ASSERT_EQ(count_spans(snapshot, "trace_test.basic"), 1u);
  for (const auto& thread : snapshot.threads) {
    for (const auto& span : thread.spans) {
      if (std::string_view(span.name) != "trace_test.basic") continue;
      EXPECT_GE(span.start_ns, before);
      EXPECT_LE(span.start_ns, span.end_ns);
      EXPECT_LE(span.end_ns, after);
    }
  }
}

TEST_F(TraceTest, StopIsIdempotent) {
  {
    SpanScope span("trace_test.stopped");
    span.stop();
    span.stop();  // second stop and the destructor must both be no-ops
  }
  EXPECT_EQ(count_spans(collect_trace(), "trace_test.stopped"), 1u);
}

TEST_F(TraceTest, NullNameIsAnExplicitNoOp) {
  { SpanScope span(nullptr); }
  const auto snapshot = collect_trace();
  for (const auto& thread : snapshot.threads) {
    for (const auto& span : thread.spans) EXPECT_NE(span.name, nullptr);
  }
}

TEST_F(TraceTest, RingWrapsDroppingOldestAndCounting) {
  set_trace_capacity(4);  // applies to the fresh thread's new ring only
  std::thread recorder([] {
    for (int i = 0; i < 10; ++i) { OBS_SPAN("trace_test.wrap"); }
  });
  recorder.join();

  const auto snapshot = collect_trace();
  EXPECT_EQ(count_spans(snapshot, "trace_test.wrap"), 4u);
  bool found = false;
  for (const auto& thread : snapshot.threads) {
    if (thread.spans.empty() ||
        std::string_view(thread.spans.front().name) != "trace_test.wrap")
      continue;
    found = true;
    EXPECT_EQ(thread.dropped, 6u);
    // Oldest-first within the surviving window.
    for (std::size_t i = 1; i < thread.spans.size(); ++i)
      EXPECT_LE(thread.spans[i - 1].start_ns, thread.spans[i].start_ns);
  }
  EXPECT_TRUE(found);
  EXPECT_EQ(snapshot.dropped_total(), 6u);
}

TEST_F(TraceTest, InternedNamesRecordLikeLiterals) {
  const char* name = intern(std::string("trace_test.dyn.0").c_str());
  EXPECT_EQ(name, intern("trace_test.dyn.0"));  // idempotent per content
  { SpanScope span(name); }
  EXPECT_EQ(count_spans(collect_trace(), "trace_test.dyn.0"), 1u);
}

TEST_F(TraceTest, ChromeTraceExportIsStructurallyValid) {
  {
    OBS_SPAN("trace_test.parent");
    { OBS_SPAN("trace_test.child"); }
    { OBS_SPAN("trace_test.child"); }
  }
  std::thread other([] { OBS_SPAN("trace_test.other_thread"); });
  other.join();

  const auto snapshot = collect_trace();
  const std::string json = chrome_trace_json(snapshot);
  auto check = check_chrome_trace(json);
  ASSERT_TRUE(check.ok()) << check.error().to_string();
  EXPECT_EQ(check.value().begin_events, snapshot.span_count());
  EXPECT_EQ(check.value().events, 2 * snapshot.span_count());
  EXPECT_GE(check.value().threads, 2u);

  auto named = [&](std::string_view name) -> std::size_t {
    for (const auto& [span, count] : check.value().spans_by_name) {
      if (span == name) return count;
    }
    return 0;
  };
  EXPECT_EQ(named("trace_test.parent"), 1u);
  EXPECT_EQ(named("trace_test.child"), 2u);
  EXPECT_EQ(named("trace_test.other_thread"), 1u);
}

TEST_F(TraceTest, ValidatorRejectsMalformedTraces) {
  EXPECT_FALSE(check_chrome_trace("not json").ok());
  EXPECT_FALSE(check_chrome_trace("{\"traceEvents\": 3}").ok());
  // An unclosed "B" and a mispaired "E" must both fail.
  EXPECT_FALSE(check_chrome_trace(
                   R"({"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":1,"tid":1}]})")
                   .ok());
  EXPECT_FALSE(check_chrome_trace(
                   R"({"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":1,"tid":1},)"
                   R"({"name":"b","ph":"E","ts":1,"pid":1,"tid":1}]})")
                   .ok());
  // Decreasing ts must fail.
  EXPECT_FALSE(check_chrome_trace(
                   R"({"traceEvents":[{"name":"a","ph":"B","ts":5,"pid":1,"tid":1},)"
                   R"({"name":"a","ph":"E","ts":1,"pid":1,"tid":1}]})")
                   .ok());
}

// profile() runs on snapshots, so self-time arithmetic can be pinned
// with synthetic spans instead of real clock readings.
TEST(TraceProfileTest, SelfTimeSubtractsSameThreadChildren) {
  TraceSnapshot snapshot;
  ThreadTrace thread;
  thread.tid = 0;
  // Completion order (child spans finish before their parent).
  thread.spans.push_back({"child", 10, 30});
  thread.spans.push_back({"child", 40, 50});
  thread.spans.push_back({"parent", 0, 100});
  snapshot.threads.push_back(thread);

  const auto entries = profile(snapshot);
  ASSERT_EQ(entries.size(), 2u);
  // Sorted by self time descending: parent 70 (100 - 20 - 10), child 30.
  EXPECT_EQ(entries[0].name, "parent");
  EXPECT_EQ(entries[0].count, 1u);
  EXPECT_EQ(entries[0].total_ns, 100u);
  EXPECT_EQ(entries[0].self_ns, 70u);
  EXPECT_EQ(entries[1].name, "child");
  EXPECT_EQ(entries[1].count, 2u);
  EXPECT_EQ(entries[1].total_ns, 30u);
  EXPECT_EQ(entries[1].self_ns, 30u);
  EXPECT_EQ(entries[1].min_ns, 10u);
  EXPECT_EQ(entries[1].max_ns, 20u);

  const std::string table = profile_table(entries, 10);
  EXPECT_NE(table.find("parent"), std::string::npos);
  EXPECT_NE(table.find("child"), std::string::npos);
}

TEST_F(TraceTest, SpansCarryTraceIdsIntoTheChromeExport) {
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    SpanScope outer("traced.outer");
    outer_id = current_trace_id();
    {
      SpanScope inner("traced.inner");
      inner_id = current_trace_id();
    }
    // Closing the inner span restores the parent as the current id.
    EXPECT_EQ(current_trace_id(), outer_id);
  }
  EXPECT_EQ(current_trace_id(), 0u);
  ASSERT_NE(outer_id, 0u);
  ASSERT_NE(inner_id, 0u);
  EXPECT_NE(outer_id, inner_id);

  // Canonical rendering: 16 lowercase hex digits, zero-padded.
  const std::string outer_hex = trace_id_hex(outer_id);
  ASSERT_EQ(outer_hex.size(), 16u);
  for (char c : outer_hex)
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << outer_hex;
  EXPECT_EQ(trace_id_hex(0x2a), "000000000000002a");

  const std::string json = chrome_trace_json(collect_trace());
  EXPECT_NE(json.find("\"trace_id\":\"" + outer_hex + "\""), std::string::npos) << json;

  auto check = check_chrome_trace(json);
  ASSERT_TRUE(check.ok()) << check.error().to_string();
  EXPECT_TRUE(check.value().has_trace_id(outer_hex));
  EXPECT_TRUE(check.value().has_trace_id(trace_id_hex(inner_id)));
  EXPECT_FALSE(check.value().has_trace_id("ffffffffffffffff"));
  EXPECT_EQ(check.value().trace_ids.size(), 2u);
}

TEST(TraceProfileTest, SpansOnOtherThreadsDoNotCountAsChildren) {
  TraceSnapshot snapshot;
  ThreadTrace a;
  a.tid = 0;
  a.spans.push_back({"parent", 0, 100});
  ThreadTrace b;
  b.tid = 1;
  b.spans.push_back({"worker", 10, 30});
  snapshot.threads.push_back(a);
  snapshot.threads.push_back(b);

  const auto entries = profile(snapshot);
  for (const auto& entry : entries) {
    if (entry.name == "parent") {
      EXPECT_EQ(entry.self_ns, 100u);
    }
  }
}

}  // namespace
}  // namespace tsufail::obs
