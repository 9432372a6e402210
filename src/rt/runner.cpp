#include "rt/runner.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "sim/dataset.hpp"
#include "sim/scenario.hpp"

namespace mvs::rt {

RtRunner::RtRunner(const std::string& scenario_name,
                   const runtime::PipelineConfig& pipeline_config,
                   const runtime::RtConfig& rt_config,
                   util::ThreadPool* shared_pool)
    : rt_(rt_config),
      pipeline_(scenario_name, pipeline_config, shared_pool),
      pacer_(rt_config.frame_period_ms > 0.0
                 ? rt_config.frame_period_ms
                 : 1000.0 / std::max(1e-9, pipeline_.scenario().fps),
             rt_config.arrival_jitter_ms, pipeline_.camera_count(),
             pipeline_config.seed),
      scorer_(pipeline_.camera_count(), pipeline_config.recall_iou) {
  fleet::BurnConfig bc;
  bc.error_budget = rt_.miss_budget;
  miss_burn_.configure(bc);
}

void RtRunner::push_burn(bool miss, long frame) {
  if (rt_.miss_budget <= 0.0) return;
  const int edge = miss_burn_.push(miss);
  if (edge == 0) return;
  const auto type = edge > 0 ? runtime::TraceEventType::kSloAlertRaise
                             : runtime::TraceEventType::kSloAlertClear;
  if (edge > 0) ++slo_alerts_;
  runtime::emit(trace_, {frame, -1, type, 0, miss_burn_.fast_burn()});
}

void RtRunner::attach_trace(runtime::TraceRecorder* trace) {
  trace_ = trace;
  pipeline_.attach_trace(trace);
}

bool RtRunner::is_key(long frame) const {
  const int horizon = pipeline_.config().horizon_frames;
  return horizon > 0 && frame % horizon == 0;
}

void RtRunner::resolve_skip(const Pending& p) {
  // The pipeline coasts over the frame (cadence and dropout schedules stay
  // frame-indexed); the instant is still scored — against whatever the
  // runtime had emitted by then.
  pipeline_.skip_frame();
  scorer_.score_instant(p.capture_ms, pipeline_.current_frame().per_camera);
}

StepOutcome RtRunner::step() {
  StepOutcome out;
  const long f = frames_enqueued_++;
  const double capture = pacer_.capture_ms(f);
  const double arrival = pacer_.next_arrival();
  ++counters_.arrived;
  out.frame = f;
  out.key_frame_ran = drain_until(arrival, /*drain_all=*/false);

  if (rt_.late_policy == runtime::LatePolicy::kSupersede) {
    // Newest-wins: anything still queued when this frame lands is stale by
    // definition (the processor is busy past our arrival). Mark, don't
    // remove — the skip resolves in frame order at the queue head.
    for (std::size_t q = qhead_; q < queue_.size(); ++q) {
      Pending& p = queue_[q];
      if (p.key || p.superseded) continue;
      p.superseded = true;
      ++counters_.superseded;
      const double age = arrival - p.capture_ms;
      runtime::emit(trace_, {p.frame, -1,
                             runtime::TraceEventType::kRtSupersede, 0, age});
      if (obs::enabled())
        obs::metrics().histogram("rt.superseded").record(age);
    }
  }

  queue_.push_back({f, capture, arrival, is_key(f), false});
  return out;
}

bool RtRunner::drain_until(double t, bool drain_all) {
  bool key_ran = false;
  while (qhead_ < queue_.size()) {
    Pending& p = queue_[qhead_];
    const double start = std::max(p.arrival_ms, busy_until_);
    if (!drain_all && start > t) break;

    if (p.superseded) {
      resolve_skip(p);
      ++qhead_;
      continue;
    }

    const double age_at_start = start - p.capture_ms;
    if (!p.key && rt_.late_policy != runtime::LatePolicy::kFinishLate &&
        deadline_missed(age_at_start, rt_.deadline_ms)) {
      // Already older than the budget before it would even start: drop it
      // and charge the miss now.
      ++counters_.dropped;
      ++counters_.deadline_miss;
      runtime::emit(trace_, {p.frame, -1, runtime::TraceEventType::kRtDrop, 0,
                             age_at_start});
      if (obs::enabled())
        obs::metrics().histogram("rt.deadline_miss").record(age_at_start);
      if (obs::attribution_enabled()) {
        // A dropped frame's whole life was waiting: capture->arrival and
        // arrival->would-be-start. Sums to age_at_start exactly, and its
        // miss flag feeds the flight recorder's burst window.
        obs::FrameAttribution fa;
        fa.id = obs::causal_id(0, static_cast<std::uint64_t>(p.frame));
        fa.total_ms = age_at_start;
        fa.segment_ms[static_cast<std::size_t>(obs::Segment::kCaptureWait)] =
            p.arrival_ms - p.capture_ms;
        fa.segment_ms[static_cast<std::size_t>(obs::Segment::kSchedQueue)] =
            start - p.arrival_ms;
        fa.deadline_miss = true;
        obs::critical_path().record(fa);
        obs::recorder().note_frame(fa);
      }
      push_burn(true, p.frame);
      resolve_skip(p);
      ++qhead_;
      continue;
    }

    const runtime::FrameStats& st = pipeline_.run_frame_ref();
    key_ran = key_ran || st.key_frame;
    ++counters_.processed;
    for (double v : st.camera_infer_ms) counters_.gpu_busy_ms += v;
    // Virtual service time: simulated quantities only (never the measured
    // wall-clock overheads), so the schedule is deterministic.
    const double service = st.slowest_infer_ms + st.comm_ms + st.queue_ms +
                           rt_.fixed_overhead_ms;
    const double finish = start + service;
    busy_until_ = finish;
    last_finish_ms_ = finish;

    // Emit BEFORE scoring the instant: a zero-service frame with on-time
    // arrival emits exactly at its own capture instant and must be adopted
    // there (emit_ms <= t is inclusive).
    scorer_.note_emission(finish, p.capture_ms, pipeline_.last_reported());
    scorer_.score_instant(p.capture_ms, pipeline_.current_frame().per_camera);

    const double age = finish - p.capture_ms;
    const bool miss = deadline_missed(age, rt_.deadline_ms);
    if (miss) {
      ++counters_.deadline_miss;
      runtime::emit(trace_, {p.frame, -1,
                             runtime::TraceEventType::kRtDeadlineMiss, 0, age});
      if (obs::enabled())
        obs::metrics().histogram("rt.deadline_miss").record(age);
    }
    if (obs::enabled()) obs::metrics().histogram("rt.lag_ms").record(age);
    if (obs::attribution_enabled()) {
      // The exact addends of `age` (virtual clock — tracking/batch-wait are
      // structurally zero here; see DESIGN.md §14): capture->arrival wait,
      // arrival->start scheduler queue, slowest-camera inference, modeled
      // transport comm + queueing, fixed emission overhead.
      obs::FrameAttribution fa;
      fa.id = obs::causal_id(0, static_cast<std::uint64_t>(p.frame));
      fa.total_ms = age;
      fa.segment_ms[static_cast<std::size_t>(obs::Segment::kCaptureWait)] =
          p.arrival_ms - p.capture_ms;
      fa.segment_ms[static_cast<std::size_t>(obs::Segment::kSchedQueue)] =
          start - p.arrival_ms;
      fa.segment_ms[static_cast<std::size_t>(obs::Segment::kGpu)] =
          st.slowest_infer_ms;
      fa.segment_ms[static_cast<std::size_t>(obs::Segment::kNet)] =
          st.comm_ms + st.queue_ms;
      fa.segment_ms[static_cast<std::size_t>(obs::Segment::kEmit)] =
          rt_.fixed_overhead_ms;
      fa.deadline_miss = miss;
      obs::critical_path().record(fa);
      obs::recorder().note_frame(fa);
    }
    push_burn(miss, p.frame);
    ++qhead_;
  }
  if (qhead_ == queue_.size() && qhead_ > 0) {
    queue_.clear();
    qhead_ = 0;
  }
  return key_ran;
}

void RtRunner::finish() { drain_until(0.0, /*drain_all=*/true); }

RtResult RtRunner::run(int frames) {
  for (int f = 0; f < frames; ++f) step();
  finish();
  return result();
}

RtResult RtRunner::result() const {
  RtResult r;
  r.counters = counters_;
  r.streaming_recall = scorer_.streaming_recall();
  r.object_recall = pipeline_.object_recall();
  const util::RunningStats& lag = scorer_.lag_ms();
  if (lag.count() > 0) {
    r.mean_lag_ms = lag.mean();
    r.max_lag_ms = lag.max();
  }
  r.instants = scorer_.instants();
  r.makespan_ms = last_finish_ms_;
  return r;
}

}  // namespace mvs::rt
