// eval_ir: EfficientNet-B0 inference at 224 px through the compiled graph
// IR (fold + fuse + DCE, one planned arena), batch 4, kernel pool = nproc.
// It exercises ir and the multi-threaded tensor kernels at large shapes;
// data, dist, backward and optim do no work here.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "data/loader.h"
#include "effnet/flops.h"
#include "ir/executor.h"
#include "ir/passes.h"
#include "nn/lower.h"
#include "tensor/ops.h"

namespace podnet::perfbench {
namespace {

constexpr tensor::Index kBatch = 4;
constexpr tensor::Index kResolution = 224;
constexpr tensor::Index kClasses = 1000;
constexpr int kInputBatches = 8;   // distinct inputs, cycled
constexpr int kSetupReps = 5;      // set-ups per run; setup_s is their median
constexpr int kWarmupRuns = 3;
constexpr double kTailPct = 90;    // ~400 batches in 30 s, ~40 beyond
constexpr double kMaxRelErr = 5e-3;
constexpr int kTracedBatches = 30;

// A model built, lowered to the graph IR, optimized (fold + fuse + DCE) and
// compiled into an ir::Executor, with each stage timed. Members are
// destroyed in reverse order: the executor borrows the program, which
// borrows the model's tensors.
struct Compiled {
  std::unique_ptr<effnet::EfficientNet> model;
  ir::Program program;
  std::unique_ptr<ir::Executor> exec;
  double build_s = 0, lower_s = 0, passes_s = 0, compile_s = 0;
  double first_run_s = 0;  // binds the arena, then runs
};

std::unique_ptr<Compiled> compile_model(const effnet::ModelSpec& spec,
                                        const effnet::ModelOptions& mopts,
                                        const tensor::Tensor& x,
                                        SpanLog& log) {
  auto c = std::make_unique<Compiled>();
  double t = now_s();
  auto lap = [&t] {
    const double n = now_s(), d = n - t;
    t = n;
    return d;
  };
  {
    Scope s(log, "effnet.build", 0, -1);
    c->model = std::make_unique<effnet::EfficientNet>(spec, mopts);
  }
  c->build_s = lap();
  {
    Scope s(log, "ir.lower", 0, -1);
    c->program = nn::lower_to_program(*c->model);
  }
  c->lower_s = lap();
  {
    Scope s(log, "ir.passes", 0, -1);
    ir::run_passes(c->program, ir::PassOptions{});
  }
  c->passes_s = lap();
  {
    Scope s(log, "ir.compile", 0, -1);
    c->exec = std::make_unique<ir::Executor>(c->program);
  }
  c->compile_s = lap();
  {
    Scope s(log, "ir.bind_run", 0, -1);
    c->exec->run(x);
  }
  c->first_run_s = lap();
  return c;
}

// Largest logit difference relative to the largest reference logit.
double rel_err(const tensor::Tensor& got, const tensor::Tensor& want) {
  double diff = 0, scale = 0;
  for (tensor::Index i = 0; i < want.numel(); ++i) {
    diff = std::max(diff, static_cast<double>(std::fabs(got.data()[i] - want.data()[i])));
    scale = std::max(scale, static_cast<double>(std::fabs(want.data()[i])));
  }
  return scale > 0 ? diff / scale : diff;
}

// Checks the compiled logits on `x` against the layer interpreter's; a
// mismatch fails every batch of the run. Returns the interpreter's time.
double check_logits(Result& r, Compiled& c, const tensor::Tensor& x,
                    bool perturb, SpanLog& log) {
  const double t0 = now_s();
  tensor::Tensor want;
  {
    Scope s(log, "nn.forward", 0, 0);
    want = c.model->forward(x, /*training=*/false);
  }
  const double interp_ms = (now_s() - t0) * 1e3;
  const tensor::Tensor got = c.exec->run(x);
  if (perturb) {  // 2% of the largest logit: four times the limit
    float scale = 0;
    for (float v : want.span()) scale = std::max(scale, std::fabs(v));
    want.data()[0] += 0.02f * scale;
  }
  const double err = rel_err(got, want);
  r.note("check: compiled vs interpreter logits on batch 0: max rel err %.3g "
         "(limit %.0e)", err, kMaxRelErr);
  if (!(err <= kMaxRelErr) || !tensor::all_finite(got.span())) {
    r.fail("compiled logits diverge from the interpreter", r.attempted - r.failed);
  }
  return interp_ms;
}

// Timed executor runs over the input batches; returns per-batch ms.
std::vector<double> run_batches(ir::Executor& exec,
                                const std::vector<data::Batch>& inputs,
                                int count, double seconds, SpanLog& log,
                                Result* r) {
  std::vector<double> ms;
  const double start = now_s();
  for (int i = 0; (count > 0 && i < count) ||
                  (count == 0 && now_s() - start < seconds);
       ++i) {
    const tensor::Tensor& x = inputs[static_cast<std::size_t>(i) % inputs.size()].images;
    const double t0 = now_s();
    tensor::Tensor logits;
    {
      Scope s(log, "ir.run", 0, i);
      logits = exec.run(x);
    }
    ms.push_back((now_s() - t0) * 1e3);
    if (r != nullptr) {
      ++r->attempted;
      if (!tensor::all_finite(logits.span())) r->fail("non-finite logits", 1);
    }
  }
  return ms;
}

}  // namespace

void add_ir_metrics(Result& r, const effnet::ModelSpec& spec,
                    const effnet::ModelOptions& mopts, const tensor::Tensor& x,
                    SpanLog& log, int reps) {
  std::vector<double> build, lower, passes, compile, first;
  std::unique_ptr<Compiled> c;
  for (int i = 0; i < reps; ++i) {
    c.reset();
    c = compile_model(spec, mopts, x, log);
    build.push_back(c->build_s * 1e3);
    lower.push_back(c->lower_s * 1e3);
    passes.push_back(c->passes_s * 1e3);
    compile.push_back(c->compile_s * 1e3);
    first.push_back(c->first_run_s * 1e3);
  }
  std::vector<double> runs;
  for (int i = 0; i < 7; ++i) {
    const double t0 = now_s();
    c->exec->run(x);
    runs.push_back((now_s() - t0) * 1e3);
  }
  const double run_ms = median(runs);
  const double macs =
      effnet::analyze(spec, mopts.num_classes, spec.resolution).total_macs() *
      static_cast<double>(x.shape()[0]);
  r.add("effnet.build_ms", median(build), "ms");
  r.add("ir.lower_ms", median(lower), "ms");
  r.add("ir.passes_ms", median(passes), "ms");
  r.add("ir.compile_ms", median(compile), "ms");
  r.add("ir.bind_ms", std::max(0.0, median(first) - run_ms), "ms");
  r.add("ir.run_ms", run_ms, "ms");
  r.add("ir.gflops", 2.0 * macs / (run_ms * 1e-3) / 1e9, "GFLOP/s");
  r.add("ir.arena_mb",
        static_cast<double>(c->exec->stats().arena_bytes) / (1 << 20), "MiB");
}

Result run_eval(const Options& opts) {
  Result r;
  SpanLog log;
  effnet::ModelSpec spec = effnet::b(0);
  spec.resolution = kResolution;
  effnet::ModelOptions mopts;
  mopts.init_seed = opts.seed;
  mopts.num_classes = kClasses;

  // Inputs are rendered before anything is timed.
  data::DatasetConfig dc;
  dc.num_classes = kClasses;
  dc.train_size = kBatch;
  dc.eval_size = kBatch * kInputBatches;
  dc.resolution = kResolution;
  dc.seed = opts.seed;
  const data::SyntheticImageNet dataset(dc);
  const data::EvalLoader loader(&dataset, 0, 1, kBatch);
  std::vector<data::Batch> inputs;
  std::vector<double> data_ms;
  log.set_enabled(opts.trace);
  for (int i = 0; i < kInputBatches; ++i) {
    const double t0 = now_s();
    {
      Scope s(log, "data.batch", 0, i);
      inputs.push_back(loader.batch(i));
    }
    data_ms.push_back((now_s() - t0) * 1e3);
  }
  const tensor::Tensor& x0 = inputs[0].images;

  if (!opts.trace) {
    // Set-up, several times: build + lower + passes + compile + first run.
    std::vector<double> setup_s;
    std::unique_ptr<Compiled> c;
    for (int i = 0; i < kSetupReps; ++i) {
      c.reset();
      const double t0 = now_s();
      c = compile_model(spec, mopts, x0, log);
      setup_s.push_back(now_s() - t0);
    }
    run_batches(*c->exec, inputs, kWarmupRuns, 0, log, nullptr);
    const std::vector<double> ms =
        run_batches(*c->exec, inputs, 0, opts.seconds, log, &r);
    const double rss = peak_rss_mb();

    check_logits(r, *c, x0, opts.perturb, log);

    const Steady st = steady_stats(
        ms, static_cast<double>(kBatch) * static_cast<double>(ms.size()),
        kTailPct);
    r.note("step = one eval batch of %lld images; statistics over all %zu "
           "timed batches, p%.0f tail with %zu beyond; setup_s is the median "
           "of %d",
           static_cast<long long>(kBatch), st.samples, st.pct, st.beyond,
           kSetupReps);
    r.add("setup_s", median(setup_s), "s");
    r.add("img_per_s", st.img_per_s, "img/s");
    r.add("step_ms_p50", st.p50_ms, "ms");
    r.add("step_ms_tail", st.tail_ms, "ms");
    r.add("peak_rss_mb", rss, "MiB");
    return r;
  }

  // Traced run: per-stage set-up costs, then untraced / traced / untraced
  // loops over the same executor.
  log.set_enabled(true);
  add_ir_metrics(r, spec, mopts, x0, log, kSetupReps);
  log.set_enabled(false);
  std::unique_ptr<Compiled> c = compile_model(spec, mopts, x0, log);
  run_batches(*c->exec, inputs, kWarmupRuns, 0, log, nullptr);
  const double before = median(run_batches(*c->exec, inputs, kTracedBatches, 0, log, &r));
  log.set_enabled(true);
  const double traced = median(run_batches(*c->exec, inputs, kTracedBatches, 0, log, &r));
  log.set_enabled(false);
  const double after = median(run_batches(*c->exec, inputs, kTracedBatches, 0, log, &r));
  c->model->forward(x0, /*training=*/false);  // grows the interpreter scratch
  log.set_enabled(true);
  const double interp_ms = check_logits(r, *c, x0, opts.perturb, log);
  const KernelRates k = probe_kernels(spec, kResolution, kBatch, opts.seed);

  r.add("data.batch_ms", median(data_ms), "ms");
  r.add("nn.forward_ms", interp_ms, "ms");
  r.add("nn.backward_ms", 0, "ms");
  r.add("tensor.gemm_gflops", k.gemm_gflops, "GFLOP/s");
  r.add("tensor.dwconv_gflops", k.dwconv_gflops, "GFLOP/s");
  for (const char* name :
       {"dist.allreduce_ms", "dist.exposed_ms", "dist.comm_ms", "dist.skew_ms",
        "core.pack_ms", "optim.step_ms"}) {
    r.add(name, 0, "ms");
  }
  r.add("dist.buckets_per_step", 0, "count");
  r.add("dist.bytes_per_step", 0, "bytes");
  r.add("core.phase_violations", 0, "count");
  add_trainer_phases(r, nullptr);
  r.add("train.time_to_target_s", 0, "s");
  r.add("train.epochs_to_target", 0, "epochs");
  r.add("trace.overhead_frac", traced / (0.5 * (before + after)) - 1, "ratio");
  r.add("trace.driver_gap_frac", after / before - 1, "ratio");
  r.note("eval_ir has no separate step driver: driver_gap_frac is the drift "
         "between the untraced loops before and after the traced one");
  r.note("train-only layers (dist, core, optim, trainer, backward) do no work "
         "on eval_ir and read 0");
  finish_trace(r, log, opts.trace_out);
  return r;
}

}  // namespace podnet::perfbench
