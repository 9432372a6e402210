// Zero-allocation guard for the steady-state hot paths (DESIGN.md §11).
//
// Global operator new is replaced with a counting hook that is armed only
// around the measured windows, so gtest's own bookkeeping never pollutes the
// counts. The invariant under test: once warm, a REGULAR (non-key) frame
// tick allocates nothing on the pipeline path, a fleet serving tick
// allocates nothing, and recording an obs span allocates nothing on the
// producer thread. Key frames are exempt by design (mask rebuild, central
// BALB, association); the async span exporter thread is exempt via
// util::alloc_track::t_exempt (it drains rings off the frame path).
//
// The hook also keeps a live-byte balance (malloc_usable_size on every new
// and delete, so it agrees with itself under ASan too), always on, which
// the run-length soak reads: a warm serving plane must not grow its heap
// with the ticks it serves.

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/fleet.hpp"
#include "obs/obs.hpp"
#include "rt/runner.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/trace.hpp"
#include "util/alloc_track.hpp"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<long> g_allocs{0};
std::atomic<long> g_live_bytes{0};

void* note_alloc(void* p) {
  if (g_armed.load(std::memory_order_relaxed) &&
      !mvs::util::alloc_track::t_exempt)
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (p)
    g_live_bytes.fetch_add(static_cast<long>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  return p;
}

void note_free(void* p) {
  if (!p) return;
  g_live_bytes.fetch_sub(static_cast<long>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

void* checked_alloc(std::size_t n) {
  void* p = note_alloc(std::malloc(n ? n : 1));
  if (!p) throw std::bad_alloc();
  return p;
}

void* checked_aligned_alloc(std::size_t n, std::size_t align) {
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     n ? n : 1) != 0)
    throw std::bad_alloc();
  return note_alloc(p);
}

}  // namespace

void* operator new(std::size_t n) { return checked_alloc(n); }
void* operator new[](std::size_t n) { return checked_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return note_alloc(std::malloc(n ? n : 1));
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return note_alloc(std::malloc(n ? n : 1));
}
void* operator new(std::size_t n, std::align_val_t a) {
  return checked_aligned_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return checked_aligned_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { note_free(p); }
void operator delete[](void* p) noexcept { note_free(p); }
void operator delete(void* p, std::size_t) noexcept { note_free(p); }
void operator delete[](void* p, std::size_t) noexcept { note_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { note_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { note_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  note_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  note_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { note_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  note_free(p);
}

namespace {

using namespace mvs;

class Armed {
 public:
  Armed() {
    g_allocs.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
  }
  ~Armed() { g_armed.store(false, std::memory_order_relaxed); }
  long count() const { return g_allocs.load(std::memory_order_relaxed); }
};

// "Steady state" is reached once every reusable buffer has hit its
// workload high-water mark: per-camera scratch grows amortized whenever a
// frame sets a new peak (more tracks, more matches than ever before), so
// early ticks may allocate while the marks climb. The guard therefore runs
// until it observes a long streak of consecutive zero-allocation regular
// ticks — proving the system actually converges to zero — and fails if the
// streak never materializes within a generous tick budget.
constexpr int kMaxTicks = 1000;

TEST(AllocGuard, PipelineSteadyTicksAllocateNothing) {
  runtime::PipelineConfig cfg;
  cfg.threads = 4;
  cfg.keep_history = false;  // serving mode: no per-frame history growth
  runtime::Pipeline pipe("S2", cfg);

  constexpr int kRequiredStreak = 15;  // > one full key-frame horizon
  int streak = 0;
  int ticks = 0;
  for (; ticks < kMaxTicks && streak < kRequiredStreak; ++ticks) {
    g_allocs.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
    const runtime::FrameStats& stats = pipe.run_frame_ref();
    g_armed.store(false, std::memory_order_relaxed);
    if (stats.key_frame) continue;  // key frames are exempt by design
    if (g_allocs.load(std::memory_order_relaxed) == 0)
      ++streak;
    else
      streak = 0;
  }
  EXPECT_EQ(streak, kRequiredStreak)
      << "pipeline never reached a zero-allocation steady state in "
      << ticks << " ticks";
}

TEST(AllocGuard, FleetSteadyTicksAllocateNothing) {
  fleet::FleetConfig fc;
  fc.threads = 4;
  fleet::Fleet fl(fc);
  runtime::FleetSessionSpec spec;
  spec.scenario = "S2";
  spec.pipeline.keep_history = false;
  ASSERT_TRUE(fl.admit(spec).admitted);
  ASSERT_TRUE(fl.admit(spec).admitted);

  // Sessions key together every horizon (10) ticks (same spec, same phase)
  // and key ticks are exempt, so the longest possible zero streak between
  // key ticks is 9 — require exactly that, end to end through dispatch,
  // session stepping, arbitration, and rollups.
  constexpr int kRequiredStreak = 9;
  int streak = 0;
  int ticks = 0;
  for (; ticks < kMaxTicks && streak < kRequiredStreak; ++ticks) {
    g_allocs.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
    fl.step();
    g_armed.store(false, std::memory_order_relaxed);
    if (g_allocs.load(std::memory_order_relaxed) == 0)
      ++streak;
    else
      streak = 0;
  }
  EXPECT_EQ(streak, kRequiredStreak)
      << "fleet never reached a zero-allocation steady state in " << ticks
      << " ticks";
}

// Memory bounded in run length (DESIGN.md §8): once warm, a serving plane's
// live heap does not grow with the ticks it serves — per-session and
// per-tick rollups are fixed-size accumulators, not kept sample lists. The
// slack absorbs bounded high-water growth of reusable scratch: the thread
// pool parks up to 256 recycled tile groups (~26 KiB), and how many it
// needs depends on how late its helpers run. Keeping three doubles per
// session-tick would add ~7.7 MB here.
TEST(AllocGuard, FleetLiveBytesDoNotGrowWithRunLength) {
  fleet::FleetConfig fc;
  fc.threads = 4;
  fleet::Fleet fl(fc);
  for (int i = 0; i < 16; ++i) {
    runtime::FleetSessionSpec spec;
    spec.name = "soak-" + std::to_string(i);
    spec.scenario = "S2";
    spec.synthetic = true;
    spec.pipeline.seed = 100 + static_cast<std::uint64_t>(i);
    ASSERT_TRUE(fl.admit(spec).admitted);
  }
  fl.run(1000);
  const long warm = g_live_bytes.load(std::memory_order_relaxed);
  fl.run(20000);
  const long grown = g_live_bytes.load(std::memory_order_relaxed) - warm;
  constexpr long kSlackBytes = 64 * 1024;
  EXPECT_LE(grown, kSlackBytes)
      << "live heap grew by " << grown << " B over 20000 warm ticks";
  EXPECT_EQ(fl.snapshot().sessions.at(0).frames, 21000);
}

// The paced runtime inherits the invariant: once the arrival queue and the
// streaming scorer's emission pool have hit their high-water marks, a
// steady-state step() — arrival bookkeeping, drop/supersede resolution,
// service accounting, emission copy, instant scoring — allocates nothing.
// Ticks that process a key frame are exempt, exactly like the raw pipeline.
TEST(AllocGuard, PacedRuntimeSteadyTicksAllocateNothing) {
  runtime::PipelineConfig cfg;
  cfg.threads = 4;
  cfg.keep_history = false;
  runtime::RtConfig rtc;
  rtc.paced = true;
  rtc.deadline_ms = 80.0;
  rtc.late_policy = runtime::LatePolicy::kSupersede;
  rtc.arrival_jitter_ms = 5.0;
  rt::RtRunner runner("S2", cfg, rtc);

  constexpr int kRequiredStreak = 9;
  int streak = 0;
  int ticks = 0;
  for (; ticks < kMaxTicks && streak < kRequiredStreak; ++ticks) {
    g_allocs.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
    const rt::StepOutcome out = runner.step();
    g_armed.store(false, std::memory_order_relaxed);
    if (out.key_frame_ran) continue;  // key frames are exempt by design
    if (g_allocs.load(std::memory_order_relaxed) == 0)
      ++streak;
    else
      streak = 0;
  }
  EXPECT_EQ(streak, kRequiredStreak)
      << "paced runtime never reached a zero-allocation steady state in "
      << ticks << " ticks";
}

// Attribution on (critical-path record + flight-recorder append + burn-rate
// push) must preserve the zero-allocation invariant: the CriticalPath owns
// fixed histogram arrays, the recorder ring is seqlock slots, and the burn
// windows are fixed rings. Auto dumps are disabled (miss_threshold = 0)
// because building a postmortem document allocates by design — it is a cold
// path triggered at most once per ring generation.
TEST(AllocGuard, PacedRuntimeAttributionSteadyTicksAllocateNothing) {
  obs::set_attribution_enabled(true);
  obs::FlightRecorder::Config rc;
  rc.miss_threshold = 0;
  obs::recorder().configure(rc);

  runtime::PipelineConfig cfg;
  cfg.threads = 4;
  cfg.keep_history = false;
  runtime::RtConfig rtc;
  rtc.paced = true;
  rtc.deadline_ms = 80.0;
  rtc.late_policy = runtime::LatePolicy::kSupersede;
  rtc.arrival_jitter_ms = 5.0;
  rtc.miss_budget = 0.2;  // the burn monitor pushes on every resolved frame
  rt::RtRunner runner("S2", cfg, rtc);

  constexpr int kRequiredStreak = 9;
  int streak = 0;
  int ticks = 0;
  for (; ticks < kMaxTicks && streak < kRequiredStreak; ++ticks) {
    g_allocs.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
    const rt::StepOutcome out = runner.step();
    g_armed.store(false, std::memory_order_relaxed);
    if (out.key_frame_ran) continue;  // key frames are exempt by design
    if (g_allocs.load(std::memory_order_relaxed) == 0)
      ++streak;
    else
      streak = 0;
  }
  obs::set_attribution_enabled(false);
  obs::reset();
  EXPECT_EQ(streak, kRequiredStreak)
      << "paced runtime with attribution never reached a zero-allocation "
         "steady state in "
      << ticks << " ticks";
}

TEST(AllocGuard, FleetAttributionSteadyTicksAllocateNothing) {
  obs::set_attribution_enabled(true);
  obs::FlightRecorder::Config rc;
  rc.miss_threshold = 0;
  obs::recorder().configure(rc);

  fleet::FleetConfig fc;
  fc.threads = 4;
  fc.burn_error_budget = 0.2;  // session burn monitors push every tick
  fleet::Fleet fl(fc);
  runtime::FleetSessionSpec spec;
  spec.scenario = "S2";
  spec.pipeline.keep_history = false;
  ASSERT_TRUE(fl.admit(spec).admitted);
  ASSERT_TRUE(fl.admit(spec).admitted);

  constexpr int kRequiredStreak = 9;
  int streak = 0;
  int ticks = 0;
  for (; ticks < kMaxTicks && streak < kRequiredStreak; ++ticks) {
    g_allocs.store(0, std::memory_order_relaxed);
    g_armed.store(true, std::memory_order_relaxed);
    fl.step();
    g_armed.store(false, std::memory_order_relaxed);
    if (g_allocs.load(std::memory_order_relaxed) == 0)
      ++streak;
    else
      streak = 0;
  }
  obs::set_attribution_enabled(false);
  obs::reset();
  EXPECT_EQ(streak, kRequiredStreak)
      << "fleet with attribution never reached a zero-allocation steady "
         "state in "
      << ticks << " ticks";
}

// The one event path: once each type's `events.<type>` counter is resolved,
// emit() bumps it and appends to the flight ring without a lock or a name
// string — for every event type, with obs and attribution both on.
TEST(AllocGuard, EmitAllocatesNothingOnceWarm) {
  obs::set_enabled(true);
  obs::set_attribution_enabled(true);
  obs::FlightRecorder::Config rc;
  rc.miss_threshold = 0;
  obs::recorder().configure(rc);
  using runtime::TraceEventType;
  const int n = static_cast<int>(TraceEventType::kTraceEventTypeCount_);
  const auto emit_all = [n](long frame) {
    for (int t = 0; t < n; ++t)
      runtime::emit(nullptr,
                    {frame, t % 3, static_cast<TraceEventType>(t), 0, 1.0});
  };
  emit_all(0);  // warm: registers every counter once
  {
    Armed armed;
    for (long frame = 1; frame <= 100; ++frame) emit_all(frame);
    g_armed.store(false, std::memory_order_relaxed);
    EXPECT_EQ(armed.count(), 0) << "emit() must not allocate once warm";
  }
  EXPECT_EQ(obs::metrics().counter("events.session_admit").value(), 101);
  obs::set_attribution_enabled(false);
  obs::set_enabled(false);
  obs::reset();
}

TEST(AllocGuard, SpanRecordingAllocatesNothingOnHotThread) {
  obs::set_enabled(true);
  // Warm: register this thread's slot and let the ring/exporter settle.
  for (int i = 0; i < 1000; ++i) {
    MVS_SPAN("guard.warm");
  }
  {
    Armed armed;
    for (int i = 0; i < 1000; ++i) {
      MVS_SPAN("guard.hot");
    }
    g_armed.store(false, std::memory_order_relaxed);
    EXPECT_EQ(armed.count(), 0)
        << "recording a span must not allocate on the producer thread";
  }
  obs::set_enabled(false);
  obs::reset();
}

// Satellite: SpanTracer keeps its fixed slot table (rings, drained-vector
// capacity) across reset(), so re-enabling tracing after a reset must not
// reallocate on the producer thread — re-registration only flips the slot's
// generation under the registry mutex.
TEST(AllocGuard, SpanTracerResetReenableDoesNotReallocate) {
  obs::set_enabled(true);
  for (int i = 0; i < 1000; ++i) {
    MVS_SPAN("guard.gen1");
  }
  (void)obs::tracer().span_counts();  // force a full exporter drain (cold)
  obs::reset();
  {
    Armed armed;
    for (int i = 0; i < 1000; ++i) {
      MVS_SPAN("guard.gen2");
    }
    g_armed.store(false, std::memory_order_relaxed);
    EXPECT_EQ(armed.count(), 0)
        << "re-enabling after reset() must reuse the slot table";
  }
  obs::set_enabled(false);
  obs::reset();
}

}  // namespace
