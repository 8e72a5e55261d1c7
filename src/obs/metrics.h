// StepMetrics: the per-step observability record, and its JSONL encoding.
//
// One StepMetrics is produced per training step per replica by core::train:
// wall time split into the phases of the distributed step (matching the
// decomposition behind the paper's Table 1), plus counters. Records flow
// into a MetricsSink (obs/sink.h); the JSONL schema is documented in
// README.md ("Observability") and asserted by tests/obs_test.cc.
//
// PhaseTotals is the run-level rollup: core::TrainResult carries rank 0's
// totals so benches can report measured throughput and the measured
// all-reduce share of step time next to the tpu:: model's prediction.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace podnet::obs {

// Phases of one distributed training step. kEval covers the sharded
// evaluation pass (and is zero on the steps where no eval runs); kBnSync is
// the time inside batch-norm group reductions, which execute *nested
// within* the forward and backward passes and are therefore reported
// separately from (and excluded from) kForward and kBackward.
enum class Phase {
  kDataLoad = 0,
  kForward,
  kBackward,
  kAllReduce,  // gradient all-reduce (Table 1's column): the collective
               // call on the serial path; on the overlapped path the
               // main-thread window from the first bucket submit until
               // the join returns, which contains kAllReduceExposed
  kGradPack,   // flat-buffer pack before / unpack after the all-reduce
  kOptimizer,  // grad clip, LR, optimizer step, EMA
  kBnSync,
  kEval,
  // Gradient all-reduce time the step actually *waited* on: the serial
  // path exposes all of kAllReduce; the bucketed overlap path exposes only
  // the join-point wait after backward, with the rest hidden behind
  // compute. kAllReduce - kAllReduceExposed is the overlap win.
  kAllReduceExposed,
};

inline constexpr int kPhaseCount = 9;

// Stable JSONL key for a phase: "data_load", "forward", ...
const char* phase_name(Phase p);

struct StepMetrics {
  std::int64_t step = 0;
  double epoch = 0;       // continuous epoch at this step
  int rank = 0;
  int restarts = 0;       // supervised relaunches before this attempt
  int world_size = 0;     // replicas in the current world (shrinks on resize)
  // Recovery marker on the first step of a recovered attempt: 0 = none,
  // 1 = rolled back at the same world size, 2 = world resized (elastic).
  int recovery_event = 0;
  std::int64_t images = 0;           // examples consumed this step
  std::int64_t allreduce_bytes = 0;  // gradient payload all-reduced
  // Planned peak arena bytes of the compiled graph-IR eval program; set
  // only on steps where an IR-backed eval ran (0 otherwise, key omitted
  // from the JSONL record).
  std::int64_t ir_scratch_bytes = 0;
  double loss = 0;
  double lr = 0;
  // Full step wall time (data load through optimizer; excludes eval and
  // checkpoint writes, so throughput derived from it matches Table 1's
  // step-time convention).
  double step_s = 0;
  std::array<double, kPhaseCount> phase_s{};
  // Per-kernel rollup of trace spans closed during this step; populated
  // only in PODNET_PROFILE builds.
  std::vector<SpanTotal> kernels;

  double& phase(Phase p) { return phase_s[static_cast<int>(p)]; }
  double phase(Phase p) const { return phase_s[static_cast<int>(p)]; }
};

// One JSON object (no trailing newline): {"kind":"step",...}.
std::string to_json(const StepMetrics& m);

// Run-level accumulation of step records (single-rank view).
struct PhaseTotals {
  std::array<double, kPhaseCount> seconds{};
  double step_seconds = 0;  // sum of StepMetrics::step_s
  std::int64_t steps = 0;
  std::int64_t images = 0;
  std::int64_t allreduce_bytes = 0;

  // PODNET_CHECK builds throw std::logic_error when m breaks the phase
  // invariants: exposed all-reduce above the total, or the sequential
  // phases (all but kAllReduce and kEval) summing past step_s.
  void add(const StepMetrics& m);
  double phase(Phase p) const { return seconds[static_cast<int>(p)]; }
  // Share of summed step time spent in the gradient all-reduce — the
  // measured counterpart of Table 1's "% time in all-reduce".
  double allreduce_fraction() const {
    return step_seconds > 0 ? phase(Phase::kAllReduce) / step_seconds : 0;
  }
  // Share of summed step time the step *waited* on gradient all-reduce
  // (== allreduce_fraction() on the serial path; smaller with overlap on).
  double exposed_allreduce_fraction() const {
    return step_seconds > 0 ? phase(Phase::kAllReduceExposed) / step_seconds
                            : 0;
  }
};

}  // namespace podnet::obs
