// Graph-IR pass benchmark: the nn layer interpreter vs the compiled
// ir::Executor on EfficientNet eval, one row per pass configuration
// (no passes / conv+BN fold / fold+fuse+DCE with the planned arena).
//
// Reported per row: eval throughput (img/ms) and the peak scratch story —
// the executor's planned arena bytes and its no-reuse upper bound next to
// the interpreter's persistent per-layer im2col scratch high-water mark.
//
// Modes sharing one binary:
//   (default)       prints the comparison table for --model (b0);
//   --smoke         correctness gate for the `ir` ctest label: runs the
//                   pico spec and fails unless every configuration's
//                   logits track the interpreter and the planned arena
//                   beats the no-reuse layout;
//   --model NAME    any effnet::by_name spec (default b0);
//   --batch N       eval batch per timed forward (default 2);
//   --iters N       timed iterations per configuration (default 3).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "effnet/model.h"
#include "ir/analysis.h"
#include "ir/executor.h"
#include "ir/passes.h"
#include "ir/verify.h"
#include "nn/lower.h"
#include "tensor/tensor.h"

namespace {

using namespace podnet;
using nn::Rng;
using tensor::Shape;
using tensor::Tensor;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct PassConfig {
  const char* name;
  bool use_ir;
  ir::PassOptions opts;
};

constexpr PassConfig kConfigs[] = {
    {"interp", false, {}},
    {"ir_nopass", true, {false, false, false}},
    {"ir_fold", true, {true, false, true}},
    {"ir_fold_fuse", true, {true, true, true}},
};

struct Row {
  std::string name;
  double ms_per_img = 0;
  double speedup_vs_interp = 1.0;
  std::int64_t arena_bytes = 0;          // 0 for the interpreter row
  std::int64_t no_reuse_bytes = 0;       // ditto
  std::int64_t interp_scratch_bytes = 0; // interpreter col_scratch sum
  double max_rel_err = 0;                // vs the interpreter logits
  double lower_pass_us = 0;              // lower_to_program + run_passes
  double analysis_us = 0;                // full static gate re-run
};

double max_rel_err(const Tensor& got, const Tensor& want) {
  double worst = 0;
  for (tensor::Index i = 0; i < got.numel(); ++i) {
    const double w = want.data()[i];
    const double e =
        std::fabs(got.data()[i] - w) / (1e-6 + std::fabs(w));
    if (e > worst) worst = e;
  }
  return worst;
}

std::vector<Row> run_model(const std::string& model_name,
                           tensor::Index batch, int iters) {
  const effnet::ModelSpec spec = effnet::by_name(model_name);
  effnet::ModelOptions mopts;
  mopts.num_classes = 1000;
  effnet::EfficientNet model(spec, mopts);
  Rng rng(5);
  const Tensor x =
      Tensor::randn(Shape{batch, spec.resolution, spec.resolution, 3}, rng);

  std::vector<Row> rows;
  Tensor interp_logits;
  double interp_ms = 0;
  std::int64_t interp_scratch = 0;

  for (const PassConfig& cfg : kConfigs) {
    Row row;
    row.name = std::string(model_name) + "_eval_" + cfg.name;

    ir::Program prog;
    std::unique_ptr<ir::Executor> exec;
    if (cfg.use_ir) {
      const double l0 = now_s();
      prog = nn::lower_to_program(model);
      ir::run_passes(prog, cfg.opts);
      row.lower_pass_us = 1e6 * (now_s() - l0);
      exec = std::make_unique<ir::Executor>(prog);
    }
    const auto forward = [&] {
      return exec ? exec->run(x) : model.forward(x, /*training=*/false);
    };

    Tensor logits = forward();  // warm-up: binds the arena / grows scratch
    const double t0 = now_s();
    for (int i = 0; i < iters; ++i) logits = forward();
    const double elapsed = now_s() - t0;
    row.ms_per_img =
        1e3 * elapsed / (static_cast<double>(iters) *
                         static_cast<double>(batch));

    if (cfg.use_ir) {
      row.arena_bytes = exec->stats().arena_bytes;
      row.no_reuse_bytes = exec->stats().no_reuse_bytes;
      row.speedup_vs_interp = interp_ms / row.ms_per_img;
      row.max_rel_err = max_rel_err(logits, interp_logits);
      row.interp_scratch_bytes = interp_scratch;
      // Cost of the recurring structural gate, re-run standalone against
      // the executor's bound plan: SSA/attribute verification, shape
      // inference, the per-op scratch table, and plan certification.
      // This is the work every compile (and recompile after a pass
      // change) pays. The parameter-data finiteness scan (assert_ranges)
      // is a one-time per-model validation the executor performs at
      // construction, so it is deliberately outside this column.
      // Budget: analysis_us < 5% of lower_pass_us.
      const double a0 = now_s();
      ir::verify(prog);
      const std::vector<Shape> shapes = ir::infer_shapes(prog, x.shape());
      const std::vector<std::int64_t> scratch =
          ir::op_scratch_floats(prog, shapes, ir::default_conv_strategy());
      ir::certify_plan(prog, shapes, scratch, exec->plan());
      row.analysis_us = 1e6 * (now_s() - a0);
    } else {
      interp_ms = row.ms_per_img;
      interp_scratch = model.scratch_bytes();
      row.interp_scratch_bytes = interp_scratch;
      interp_logits = std::move(logits);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void print_rows(const std::vector<Row>& rows) {
  std::printf("%-28s %10s %8s %14s %14s %10s %12s %12s\n", "config",
              "ms/img", "speedup", "arena_bytes", "no_reuse", "max_rel",
              "lower_us", "analysis_us");
  for (const Row& r : rows) {
    std::printf("%-28s %10.3f %7.2fx %14lld %14lld %10.2e %12.1f %12.1f\n",
                r.name.c_str(), r.ms_per_img, r.speedup_vs_interp,
                static_cast<long long>(r.arena_bytes),
                static_cast<long long>(r.no_reuse_bytes), r.max_rel_err,
                r.lower_pass_us, r.analysis_us);
  }
  std::printf("interpreter col_scratch high-water: %lld bytes\n",
              static_cast<long long>(rows.front().interp_scratch_bytes));
}

// --smoke: pico-sized correctness gate — parity with the interpreter and
// a real arena-reuse win, independent of host speed.
int run_smoke() {
  const std::vector<Row> rows = run_model("pico", 4, 2);
  int failures = 0;
  for (const Row& r : rows) {
    if (r.name.find("interp") != std::string::npos) continue;
    if (r.max_rel_err > 5e-3) {
      std::printf("ir_smoke FAIL: %s diverged from interpreter "
                  "(max_rel_err %.3g)\n",
                  r.name.c_str(), r.max_rel_err);
      ++failures;
    }
    if (r.arena_bytes <= 0 || r.arena_bytes >= r.no_reuse_bytes) {
      std::printf("ir_smoke FAIL: %s arena %lld vs no-reuse %lld — "
                  "planner produced no reuse win\n",
                  r.name.c_str(), static_cast<long long>(r.arena_bytes),
                  static_cast<long long>(r.no_reuse_bytes));
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("ir_smoke OK: %zu configurations match the interpreter "
                "and the arena beats no-reuse\n",
                rows.size() - 1);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string model_name = "b0";
  tensor::Index batch = 2;
  int iters = 3;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--model" && i + 1 < argc) {
      model_name = argv[++i];
    } else if (arg == "--batch" && i + 1 < argc) {
      batch = static_cast<tensor::Index>(std::atoll(argv[++i]));
    } else if (arg == "--iters" && i + 1 < argc) {
      iters = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--model NAME] [--batch N] "
                   "[--iters N]\n",
                   argv[0]);
      return 2;
    }
  }
  if (smoke) return run_smoke();

  const std::vector<Row> rows = run_model(model_name, batch, iters);
  print_rows(rows);
  return 0;
}
