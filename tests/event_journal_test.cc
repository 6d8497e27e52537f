/// \file
/// Tests for the online-phase event journal (obs/event_journal.h): typed
/// emission, ring-buffer overflow accounting, concurrent ordering, JSONL
/// round-trips and sinks, ScopedJournal activation, and the Chrome
/// trace-event export (obs/trace_export.h).

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/event_journal.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "obs/trace_export.h"

namespace hom::obs {
namespace {

/// Unique temp-file path per test; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& stem)
      : path_((std::filesystem::temp_directory_path() /
               (stem + "_" + std::to_string(::getpid()) + ".tmp"))
                  .string()) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Event type names.

TEST(EventTypeTest, NamesRoundTrip) {
  for (size_t i = 0; i < kNumEventTypes; ++i) {
    EventType type = static_cast<EventType>(i);
    auto parsed = EventTypeFromName(EventTypeName(type));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, type);
  }
  EXPECT_FALSE(EventTypeFromName("no_such_event").ok());
}

// ---------------------------------------------------------------------------
// Emission and accounting.

TEST(EventJournalTest, EmitAssignsSequentialSeqAndMonotonicTime) {
  EventJournal journal;
  journal.Emit(EventType::kDriftSuspected, "test", 10, 0, -1, 0.4);
  journal.Emit(EventType::kDriftConfirmed, "test", 12, 0, 1, 0.9);
  journal.Emit(EventType::kConceptSwitch, "test", 12, 0, 1, 0.9);
  std::vector<Event> events = journal.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
    EXPECT_GE(events[i].t_us, 0.0);
    if (i > 0) {
      EXPECT_GE(events[i].t_us, events[i - 1].t_us);
    }
  }
  EXPECT_EQ(events[0].type, EventType::kDriftSuspected);
  EXPECT_EQ(events[0].source, "test");
  EXPECT_EQ(events[0].record, 10);
  EXPECT_EQ(events[0].from, 0);
  EXPECT_EQ(events[0].to, -1);
  EXPECT_DOUBLE_EQ(events[0].value, 0.4);
  EXPECT_EQ(journal.emitted(), 3u);
  EXPECT_EQ(journal.dropped(), 0u);
}

TEST(EventJournalTest, PerTypeCountsTrackEveryEmit) {
  EventJournal journal;
  journal.Emit(EventType::kModelReuse, "a");
  journal.Emit(EventType::kModelReuse, "b");
  journal.Emit(EventType::kWindowError, "c");
  auto counts = journal.per_type_counts();
  EXPECT_EQ(counts[static_cast<size_t>(EventType::kModelReuse)], 2u);
  EXPECT_EQ(counts[static_cast<size_t>(EventType::kWindowError)], 1u);
  EXPECT_EQ(counts[static_cast<size_t>(EventType::kConceptSwitch)], 0u);
}

TEST(EventJournalTest, RingOverflowDropsOldestAndCountsThem) {
  EventJournal journal(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    journal.Emit(EventType::kWindowError, "test", i);
  }
  EXPECT_EQ(journal.emitted(), 10u);
  EXPECT_EQ(journal.dropped(), 6u);
  std::vector<Event> events = journal.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // The four newest survive, in seq order.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 6u + i);
    EXPECT_EQ(events[i].record, static_cast<int64_t>(6 + i));
  }
}

TEST(EventJournalTest, ConcurrentEmitsGetUniqueSeqsAndAllSurviveAccounting) {
  constexpr int kThreads = 8;
  constexpr int kEventsPerThread = 2000;
  EventJournal journal(kThreads * kEventsPerThread);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&journal, t] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        journal.Emit(EventType::kHmmPrediction, "thread", t, i);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(journal.emitted(),
            static_cast<uint64_t>(kThreads) * kEventsPerThread);
  EXPECT_EQ(journal.dropped(), 0u);
  std::vector<Event> events = journal.Snapshot();
  ASSERT_EQ(events.size(), static_cast<size_t>(kThreads) * kEventsPerThread);
  // Every seq appears exactly once and the snapshot is sorted by seq.
  std::set<uint64_t> seqs;
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
    seqs.insert(events[i].seq);
  }
  EXPECT_EQ(seqs.size(), events.size());
}

// ---------------------------------------------------------------------------
// JSONL round trips.

TEST(EventJournalTest, JsonlRoundTripPreservesEveryField) {
  Event event;
  event.type = EventType::kDriftConfirmed;
  event.source = "highorder";
  event.seq = 42;
  event.t_us = 12345.625;  // representable exactly in a double
  event.record = 1840;
  event.from = 2;
  event.to = 0;
  event.value = 0.8125;
  auto parsed = EventJournal::FromJsonl(EventJournal::ToJsonl(event));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->type, event.type);
  EXPECT_EQ(parsed->source, event.source);
  EXPECT_EQ(parsed->seq, event.seq);
  EXPECT_DOUBLE_EQ(parsed->t_us, event.t_us);
  EXPECT_EQ(parsed->record, event.record);
  EXPECT_EQ(parsed->from, event.from);
  EXPECT_EQ(parsed->to, event.to);
  EXPECT_DOUBLE_EQ(parsed->value, event.value);
}

TEST(EventJournalTest, FromJsonlRejectsGarbage) {
  EXPECT_FALSE(EventJournal::FromJsonl("not json").ok());
  EXPECT_FALSE(EventJournal::FromJsonl("{\"seq\": 1}").ok());  // no type
  EXPECT_FALSE(EventJournal::FromJsonl("{\"type\": \"bogus\"}").ok());
}

TEST(EventJournalTest, WriteJsonlDumpsTheSnapshotAfterAHeaderLine) {
  TempFile file("journal_dump");
  EventJournal journal;
  journal.Emit(EventType::kModelRelearn, "wce", 100, -1, 0, 0.5);
  journal.Emit(EventType::kConceptSwitch, "repro", 200, 0, 1, 0.9);
  ASSERT_TRUE(journal.WriteJsonl(file.path()).ok());
  std::vector<std::string> lines = ReadLines(file.path());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(EventJournal::IsHeaderLine(lines[0]));
  auto first = EventJournal::FromJsonl(lines[1]);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->type, EventType::kModelRelearn);
  EXPECT_EQ(first->source, "wce");
}

TEST(EventJournalTest, AttachedSinkStreamsEventsAsTheyFire) {
  TempFile file("journal_sink");
  EventJournal journal;
  ASSERT_TRUE(journal.AttachJsonlSink(file.path()).ok());
  journal.Emit(EventType::kDriftSuspected, "repro", 7, 1, -1, 0.35);
  // Per-event flush: header + first line are on disk before CloseSink.
  ASSERT_EQ(ReadLines(file.path()).size(), 2u);
  journal.Emit(EventType::kDriftConfirmed, "repro", 9, 1, 2, 0.9);
  journal.CloseSink();
  std::vector<std::string> lines = ReadLines(file.path());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_TRUE(EventJournal::IsHeaderLine(lines[0]));
  EXPECT_FALSE(EventJournal::IsHeaderLine(lines[1]));
  auto second = EventJournal::FromJsonl(lines[2]);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->type, EventType::kDriftConfirmed);
  EXPECT_EQ(second->to, 2);
}

TEST(EventJournalTest, SinkKeepsLinesTheRingAlreadyDropped) {
  TempFile file("journal_sink_overflow");
  EventJournal journal(/*capacity=*/2);
  ASSERT_TRUE(journal.AttachJsonlSink(file.path()).ok());
  for (int i = 0; i < 5; ++i) {
    journal.Emit(EventType::kWindowError, "test", i);
  }
  journal.CloseSink();
  EXPECT_EQ(journal.dropped(), 3u);
  // Header + every event: the sink saw lines the ring already evicted.
  EXPECT_EQ(ReadLines(file.path()).size(), 6u);
}

TEST(EventJournalTest, HeaderLineCarriesSchemaVersionAndEpoch) {
  TempFile file("journal_header");
  EventJournal journal;
  ASSERT_TRUE(journal.AttachJsonlSink(file.path()).ok());
  journal.CloseSink();
  std::vector<std::string> lines = ReadLines(file.path());
  ASSERT_EQ(lines.size(), 1u);
  auto header = JsonValue::Parse(lines[0]);
  ASSERT_TRUE(header.ok());
  EXPECT_EQ(static_cast<int>(header->Find("journal_schema")->as_double()),
            kJournalSchemaVersion);
  EXPECT_DOUBLE_EQ(header->Find("epoch_unix_us")->as_double(),
                   static_cast<double>(journal.epoch_unix_us()));
  EXPECT_GT(journal.epoch_unix_us(), 0);
  // Header lines are not events, and events are not headers.
  EXPECT_TRUE(EventJournal::IsHeaderLine(lines[0]));
  EXPECT_FALSE(EventJournal::FromJsonl(lines[0]).ok());
  Event event;
  event.type = EventType::kConceptSwitch;
  EXPECT_FALSE(EventJournal::IsHeaderLine(EventJournal::ToJsonl(event)));
}

TEST(EventJournalTest, EmitStampsTheInstalledTraceContext) {
  EventJournal journal;
  journal.Emit(EventType::kWindowError, "untraced");
  {
    TraceContext ctx;
    ctx.trace_hi = 0x1234;
    ctx.trace_lo = 0x5678;
    ctx.span_id = 0x9abc;
    ScopedTraceContext scoped(ctx);
    journal.Emit(EventType::kConceptSwitch, "traced", 10, 0, 1, 0.9);
  }
  std::vector<Event> events = journal.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].trace_hi, 0u);
  EXPECT_EQ(events[0].span_id, 0u);
  EXPECT_EQ(events[1].trace_hi, 0x1234u);
  EXPECT_EQ(events[1].trace_lo, 0x5678u);
  EXPECT_EQ(events[1].span_id, 0x9abcu);

  // The trace ids survive a JSONL round trip; untraced events omit them.
  std::string untraced_line = EventJournal::ToJsonl(events[0]);
  EXPECT_EQ(untraced_line.find("trace_id"), std::string::npos);
  std::string traced_line = EventJournal::ToJsonl(events[1]);
  EXPECT_NE(traced_line.find("trace_id"), std::string::npos);
  auto parsed = EventJournal::FromJsonl(traced_line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->trace_hi, 0x1234u);
  EXPECT_EQ(parsed->trace_lo, 0x5678u);
  EXPECT_EQ(parsed->span_id, 0x9abcu);
}

TEST(EventJournalTest, FromJsonlRejectsMalformedTraceIds) {
  EXPECT_FALSE(
      EventJournal::FromJsonl(
          "{\"type\": \"concept_switch\", \"source\": \"x\", "
          "\"trace_id\": \"zz\", \"span_id\": \"0000000000000001\"}")
          .ok());
  EXPECT_FALSE(
      EventJournal::FromJsonl(
          "{\"type\": \"concept_switch\", \"source\": \"x\", "
          "\"trace_id\": \"00000000000000000000000000000001\", "
          "\"span_id\": \"nope\"}")
          .ok());
}

TEST(EventJournalTest, SummaryJsonReportsCountsAndDrops) {
  EventJournal journal(/*capacity=*/2);
  journal.Emit(EventType::kConceptSwitch, "a");
  journal.Emit(EventType::kConceptSwitch, "b");
  journal.Emit(EventType::kModelReuse, "c");
  JsonValue summary = journal.SummaryJson();
  EXPECT_EQ(summary.Find("emitted")->as_double(), 3.0);
  EXPECT_EQ(summary.Find("dropped")->as_double(), 1.0);
  EXPECT_EQ(summary.Find("capacity")->as_double(), 2.0);
  const JsonValue* by_type = summary.Find("by_type");
  ASSERT_NE(by_type, nullptr);
  EXPECT_EQ(by_type->Find("concept_switch")->as_double(), 2.0);
  EXPECT_EQ(by_type->Find("model_reuse")->as_double(), 1.0);
  // Zero-count types are omitted.
  EXPECT_EQ(by_type->Find("window_error"), nullptr);
}

// ---------------------------------------------------------------------------
// Thread-local activation.

TEST(ScopedJournalTest, ActivatesAndRestoresNesting) {
  EXPECT_EQ(EventJournal::Active(), nullptr);
  EmitIfActive(EventType::kConceptSwitch, "noop");  // no journal: no crash
  EventJournal outer;
  {
    ScopedJournal scoped_outer(&outer);
    EXPECT_EQ(EventJournal::Active(), &outer);
    EmitIfActive(EventType::kConceptSwitch, "outer");
    EventJournal inner;
    {
      ScopedJournal scoped_inner(&inner);
      EXPECT_EQ(EventJournal::Active(), &inner);
      EmitIfActive(EventType::kModelReuse, "inner");
    }
    EXPECT_EQ(EventJournal::Active(), &outer);
  }
  EXPECT_EQ(EventJournal::Active(), nullptr);
  EXPECT_EQ(outer.emitted(), 1u);
  EXPECT_EQ(outer.Snapshot()[0].source, "outer");
}

TEST(ScopedJournalTest, ActivationIsPerThread) {
  EventJournal journal;
  ScopedJournal scoped(&journal);
  EventJournal* seen_on_other_thread = &journal;  // sentinel: must change
  std::thread([&seen_on_other_thread] {
    seen_on_other_thread = EventJournal::Active();
  }).join();
  EXPECT_EQ(seen_on_other_thread, nullptr);
  EXPECT_EQ(EventJournal::Active(), &journal);
}

// ---------------------------------------------------------------------------
// Chrome trace export.

TEST(TraceExportTest, DocumentMergesPhasesAndJournalEvents) {
  PhaseNode root;
  root.name = "build";
  root.seconds = 1.0;
  root.count = 1;
  PhaseNode child;
  child.name = "clustering";
  child.seconds = 0.25;
  child.count = 1;
  root.children.push_back(child);

  EventJournal journal;
  journal.Emit(EventType::kConceptSwitch, "highorder", 500, 0, 1, 0.9);

  JsonValue doc = ChromeTraceDocument(&root, journal.Snapshot());
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // 2 thread_name metadata + 2 phase slices + 1 instant.
  ASSERT_EQ(events->size(), 5u);
  size_t slices = 0;
  size_t instants = 0;
  size_t metadata = 0;
  for (size_t i = 0; i < events->size(); ++i) {
    const JsonValue& event = events->at(i);
    const std::string& ph = event.Find("ph")->as_string();
    ASSERT_NE(event.Find("pid"), nullptr);
    ASSERT_NE(event.Find("tid"), nullptr);
    if (ph == "X") {
      ++slices;
      EXPECT_NE(event.Find("dur"), nullptr);
      EXPECT_NE(event.Find("ts"), nullptr);
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(event.Find("name")->as_string(), "concept_switch");
      EXPECT_EQ(event.Find("args")->Find("to")->as_double(), 1.0);
    } else {
      EXPECT_EQ(ph, "M");
      ++metadata;
    }
  }
  EXPECT_EQ(slices, 2u);
  EXPECT_EQ(instants, 1u);
  EXPECT_EQ(metadata, 2u);
  EXPECT_EQ(doc.Find("displayTimeUnit")->as_string(), "ms");
}

TEST(TraceExportTest, ChildSlicesNestInsideTheParent) {
  PhaseNode root;
  root.name = "build";
  root.seconds = 2.0;
  root.count = 1;
  PhaseNode a;
  a.name = "a";
  a.seconds = 0.5;
  a.count = 1;
  PhaseNode b;
  b.name = "b";
  b.seconds = 0.75;
  b.count = 1;
  root.children.push_back(a);
  root.children.push_back(b);

  JsonValue doc = ChromeTraceDocument(&root, {});
  const JsonValue* events = doc.Find("traceEvents");
  double root_start = -1.0, root_dur = 0.0;
  double a_start = -1.0, a_dur = 0.0;
  double b_start = -1.0;
  for (size_t i = 0; i < events->size(); ++i) {
    const JsonValue& event = events->at(i);
    if (event.Find("ph")->as_string() != "X") continue;
    const std::string& name = event.Find("name")->as_string();
    double ts = event.Find("ts")->as_double();
    double dur = event.Find("dur")->as_double();
    if (name == "build") {
      root_start = ts;
      root_dur = dur;
    } else if (name == "a") {
      a_start = ts;
      a_dur = dur;
    } else if (name == "b") {
      b_start = ts;
    }
  }
  // Children are laid back-to-back from the parent's start and stay inside
  // its duration, so Perfetto renders them as a nested flame.
  EXPECT_EQ(a_start, root_start);
  EXPECT_DOUBLE_EQ(b_start, a_start + a_dur);
  EXPECT_LE(b_start, root_start + root_dur);
}

TEST(TraceExportTest, WriteChromeTraceProducesParseableJson) {
  TempFile file("trace_export");
  PhaseNode root;
  root.name = "build";
  root.seconds = 0.5;
  root.count = 1;
  EventJournal journal;
  journal.Emit(EventType::kDriftSuspected, "repro", 10, 0, -1, 0.3);
  ASSERT_TRUE(WriteChromeTrace(file.path(), &root, &journal).ok());
  std::ifstream in(file.path());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto parsed = JsonValue::Parse(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(parsed->Find("traceEvents"), nullptr);
}

TEST(TraceExportTest, EmptyInputsYieldEmptyEventArray) {
  JsonValue doc = ChromeTraceDocument(nullptr, {});
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->size(), 0u);
}

// ---------------------------------------------------------------------------
// Merged cross-process timeline.

SpanRecord MakeSpan(uint64_t span_id, uint64_t parent, const std::string& name,
                    SpanKind kind, int64_t start_unix_us, double dur_us) {
  SpanRecord span;
  span.trace_hi = 0xaaaa;
  span.trace_lo = 0xbbbb;
  span.span_id = span_id;
  span.parent_span_id = parent;
  span.name = name;
  span.kind = kind;
  span.start_unix_us = start_unix_us;
  span.dur_us = dur_us;
  return span;
}

TEST(MergedTraceTest, FusesTwoProcessesWithFlowArrowsAndNormalizedTime) {
  // primary: ship.post (client) at t=2000us; standby: replica.apply
  // (server) at t=2500us, parented on the primary's post span — the
  // cross-process edge the merge must draw a flow arrow for.
  ProcessTrace primary;
  primary.name = "primary:8080";
  primary.epoch_unix_us = 1000;
  primary.spans.push_back(
      MakeSpan(0x11, 0, "ship.round", SpanKind::kInternal, 2000, 900.0));
  primary.spans.push_back(
      MakeSpan(0x12, 0x11, "ship.post", SpanKind::kClient, 2100, 700.0));
  Event ship_event;
  ship_event.type = EventType::kCheckpointSave;
  ship_event.source = "shipper";
  ship_event.t_us = 1500.0;  // wall clock: epoch 1000 + 1500 = 2500
  ship_event.trace_hi = 0xaaaa;
  ship_event.trace_lo = 0xbbbb;
  ship_event.span_id = 0x12;
  primary.events.push_back(ship_event);

  ProcessTrace standby;
  standby.name = "standby:8081";
  standby.epoch_unix_us = 1200;
  standby.spans.push_back(
      MakeSpan(0x21, 0x12, "replica.apply", SpanKind::kServer, 2500, 300.0));

  JsonValue doc = MergedTraceDocument({primary, standby});
  EXPECT_EQ(static_cast<int>(doc.Find("merged_trace_schema")->as_double()),
            kMergedTraceSchemaVersion);
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);

  std::set<std::string> process_names;
  size_t flow_starts = 0, flow_finishes = 0;
  double apply_ts = -1.0, round_ts = -1.0, journal_ts = -1.0;
  int primary_pid = -1, standby_pid = -1, apply_pid = -1;
  for (size_t i = 0; i < events->size(); ++i) {
    const JsonValue& event = events->at(i);
    const std::string& ph = event.Find("ph")->as_string();
    const std::string& name = event.Find("name")->as_string();
    if (ph == "M" && name == "process_name") {
      const std::string& proc = event.Find("args")->Find("name")->as_string();
      process_names.insert(proc);
      if (proc == "primary:8080") {
        primary_pid = static_cast<int>(event.Find("pid")->as_double());
      } else if (proc == "standby:8081") {
        standby_pid = static_cast<int>(event.Find("pid")->as_double());
      }
    } else if (ph == "s") {
      ++flow_starts;
      EXPECT_EQ(event.Find("id")->as_string(), SpanIdHex(0x21));
    } else if (ph == "f") {
      ++flow_finishes;
      EXPECT_EQ(event.Find("bp")->as_string(), "e");
    } else if (ph == "X" && name == "replica.apply") {
      apply_ts = event.Find("ts")->as_double();
      apply_pid = static_cast<int>(event.Find("pid")->as_double());
      EXPECT_EQ(event.Find("args")->Find("parent_span_id")->as_string(),
                SpanIdHex(0x12));
      EXPECT_EQ(event.Find("args")->Find("trace_id")->as_string(),
                TraceIdHex({0xaaaa, 0xbbbb, 0x21}));
    } else if (ph == "X" && name == "ship.round") {
      round_ts = event.Find("ts")->as_double();
    } else if (ph == "i") {
      journal_ts = event.Find("ts")->as_double();
      EXPECT_EQ(event.Find("args")->Find("span_id")->as_string(),
                SpanIdHex(0x12));
    }
  }
  EXPECT_EQ(process_names,
            (std::set<std::string>{"primary:8080", "standby:8081"}));
  EXPECT_NE(primary_pid, standby_pid);
  EXPECT_EQ(apply_pid, standby_pid);
  // One cross-process edge (0x12 -> 0x21); the in-process 0x11 -> 0x12
  // edge nests visually and must NOT get an arrow.
  EXPECT_EQ(flow_starts, 1u);
  EXPECT_EQ(flow_finishes, 1u);
  // Time is normalized to the earliest moment on the merged timeline: the
  // ship.round span at absolute 2000us becomes ts 0, the standby apply at
  // absolute 2500us becomes ts 500, and the journal event (epoch 1000 +
  // t_us 1500 = absolute 2500us) lands exactly on the apply.
  EXPECT_DOUBLE_EQ(round_ts, 0.0);
  EXPECT_DOUBLE_EQ(apply_ts, 500.0);
  EXPECT_DOUBLE_EQ(journal_ts, 500.0);
}

TEST(MergedTraceTest, SameProcessParentageDrawsNoFlowArrow) {
  ProcessTrace only;
  only.name = "primary:1";
  only.spans.push_back(
      MakeSpan(0x1, 0, "ship.round", SpanKind::kInternal, 100, 50.0));
  only.spans.push_back(
      MakeSpan(0x2, 0x1, "ship.serialize", SpanKind::kInternal, 110, 20.0));
  JsonValue doc = MergedTraceDocument({only});
  const JsonValue* events = doc.Find("traceEvents");
  for (size_t i = 0; i < events->size(); ++i) {
    const std::string& ph = events->at(i).Find("ph")->as_string();
    EXPECT_NE(ph, "s");
    EXPECT_NE(ph, "f");
  }
}

}  // namespace
}  // namespace hom::obs
