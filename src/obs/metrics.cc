#include "obs/metrics.h"

#include <stdexcept>

#include "check/check.h"
#include "obs/json.h"

namespace podnet::obs {
namespace {

// Phase accounting invariants, asserted in PODNET_CHECK builds: the exposed
// all-reduce is part of the total, and the sequential phases tile at most
// the step. kEpsS absorbs the rounding of the summed lap durations.
void check_phase_invariants(const StepMetrics& m) {
  constexpr double kEpsS = 1e-9;
  const double exposed = m.phase(Phase::kAllReduceExposed);
  const double total = m.phase(Phase::kAllReduce);
  double sequential = 0;
  for (const Phase p : {Phase::kDataLoad, Phase::kForward, Phase::kBnSync,
                        Phase::kBackward, Phase::kGradPack,
                        Phase::kAllReduceExposed, Phase::kOptimizer}) {
    sequential += m.phase(p);
  }
  if (exposed > total + kEpsS || sequential > m.step_s + kEpsS) {
    throw std::logic_error(
        "phase accounting: step " + std::to_string(m.step) + " rank " +
        std::to_string(m.rank) + " has exposed all-reduce " +
        std::to_string(exposed) + " s of total " + std::to_string(total) +
        " s, sequential phases " + std::to_string(sequential) +
        " s of step " + std::to_string(m.step_s) + " s");
  }
}

}  // namespace

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kDataLoad:
      return "data_load";
    case Phase::kForward:
      return "forward";
    case Phase::kBackward:
      return "backward";
    case Phase::kAllReduce:
      return "allreduce";
    case Phase::kGradPack:
      return "grad_pack";
    case Phase::kOptimizer:
      return "optimizer";
    case Phase::kBnSync:
      return "bn_sync";
    case Phase::kEval:
      return "eval";
    case Phase::kAllReduceExposed:
      return "allreduce_exposed";
  }
  return "unknown";
}

std::string to_json(const StepMetrics& m) {
  JsonWriter w;
  w.field("kind", "step")
      .field("step", m.step)
      .field("epoch", m.epoch)
      .field("rank", m.rank)
      .field("restarts", m.restarts)
      .field("world_size", m.world_size)
      .field("recovery_event", m.recovery_event)
      .field("images", m.images)
      .field("allreduce_bytes", m.allreduce_bytes)
      .field("loss", m.loss)
      .field("lr", m.lr)
      .field("step_ms", m.step_s * 1e3);
  if (m.ir_scratch_bytes > 0) {
    w.field("ir_scratch_bytes", m.ir_scratch_bytes);
  }
#ifdef PODNET_CHECK
  // Flag records produced by an instrumented build: canary-padded tensors
  // and collective fingerprinting skew the timings, so downstream tooling
  // must not mix these steps into performance baselines.
  w.field("checked", true);
#endif
  w.begin_object("phases_ms");
  for (int p = 0; p < kPhaseCount; ++p) {
    w.field(phase_name(static_cast<Phase>(p)), m.phase_s[p] * 1e3);
  }
  w.end_object();
  if (!m.kernels.empty()) {
    w.begin_array("kernels");
    for (const SpanTotal& k : m.kernels) {
      w.begin_object()
          .field("name", k.name)
          .field("calls", k.calls)
          .field("ms", k.seconds * 1e3)
          .end_object();
    }
    w.end_array();
  }
  return w.str();
}

void PhaseTotals::add(const StepMetrics& m) {
  if constexpr (check::kEnabled) check_phase_invariants(m);
  for (int p = 0; p < kPhaseCount; ++p) seconds[p] += m.phase_s[p];
  step_seconds += m.step_s;
  ++steps;
  images += m.images;
  allreduce_bytes += m.allreduce_bytes;
}

}  // namespace podnet::obs
