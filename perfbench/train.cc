// The two training workloads, both driven through core::train:
//   train_compute — EfficientNet-nano at 24 px, 1 replica x batch 64, kernel
//     pool = nproc, serial all-reduce, 8 epochs in which eval top-1 must
//     reach a fixed target: the plain single-worker baseline, where nn /
//     tensor / data / optim do the work and dist does none;
//   train_comm — EfficientNet-pico at 16 px, 2 replicas x batch 4, one
//     kernel thread each, bucketed overlap with ~6 layer-aligned buckets on
//     one comm thread per replica: the small-per-core-batch scale-out
//     regime, where per-step dist and core (FlatBuffer) costs show.
// Both use the LARS recipe, fp32, no prefetch, compiled-IR eval off, and one
// sharded eval per epoch.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "bench.h"
#include "core/flat_params.h"
#include "core/trainer.h"
#include "data/loader.h"
#include "dist/comm_thread.h"
#include "dist/replica.h"
#include "effnet/flops.h"
#include "nn/loss.h"
#include "obs/sink.h"
#include "optim/lr_schedule.h"

namespace podnet::perfbench {
namespace {

struct Workload {
  effnet::ModelSpec spec;
  tensor::Index resolution, batch, classes, train_size, eval_size;
  double epochs;
  double target;    // eval top-1 a run must reach (0: no target)
  double tail_pct;  // leaves >= 10 samples beyond in a 30 s run
};

constexpr int kWarmSteps = 3;  // steps per train() call before steady state
constexpr int kMinCalls = 3;   // setup_s is a median over at least this many
constexpr int kAutoBuckets = 6;
constexpr std::size_t kMinBucketBytes = 8u << 10;

Workload workload_for(const std::string& name) {
  if (name == "train_compute") {
    // 128 steps of 64 images per call; the target is reached around epoch
    // 4-5 on every seed tried, with headroom to epoch 8.
    return {effnet::nano(), 24, 64, 16, 1024, 256, 8.0, 0.5, 90};
  }
  // ~1000 steps per call. p99 varied 14% between runs with the rate of
  // host preemptions (2-5 ms stalls of a sub-ms step); p95 leaves ~250
  // samples beyond in a 30 s run.
  return {effnet::pico(), 16, 4, 16, 1024, 256, 8.0, 0, 95};
}

core::TrainConfig make_config(const Workload& w, const ThreadPlan& plan,
                              std::uint64_t seed) {
  core::TrainConfig c;
  c.spec = w.spec;
  c.dataset.num_classes = w.classes;
  c.dataset.train_size = w.train_size;
  c.dataset.eval_size = w.eval_size;
  c.dataset.resolution = w.resolution;
  c.dataset.seed = seed;
  c.seed = seed;
  c.replicas = plan.replicas;
  c.per_replica_batch = w.batch;
  c.epochs = w.epochs;
  c.eval_every_epochs = 1.0;
  c.optimizer.kind = optim::OptimizerKind::kLars;
  c.lr_per_256 = 4.0f;
  c.schedule.decay = optim::DecayKind::kPolynomial;
  c.schedule.warmup_epochs = 1.0;
  c.ir_eval = false;
  c.prefetch = false;
  c.overlap = plan.comm_threads > 0;
  const effnet::ModelCost cost =
      effnet::analyze(w.spec, w.classes, w.resolution);
  c.bucket_bytes =
      std::max(kMinBucketBytes,
               static_cast<std::size_t>(cost.gradient_bytes()) / kAutoBuckets);
  return c;
}

// Numeric field `key` of a flat JSON step record (obs::to_json layout).
double field(const std::string& line, const char* key) {
  const std::string pat = std::string("\"") + key + "\":";
  const std::size_t at = line.find(pat);
  return at == std::string::npos
             ? 0
             : std::strtod(line.c_str() + at + pat.size(), nullptr);
}

// Sink that timestamps every step record on the benchmark's clock when the
// trainer hands it over; records are parsed after the run.
class StepLog final : public obs::MetricsSink {
 public:
  struct Rec {
    double t;
    std::string line;
  };
  void write_line(const std::string& json_object) override {
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu_);
    recs_.push_back({t, json_object});
  }
  std::vector<Rec> take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(recs_);
  }

 private:
  std::mutex mu_;
  std::vector<Rec> recs_;
};

// One timed core::train call, as seen from its step records.
struct Call {
  double setup_s = 0;            // train() entry to first step record
  std::vector<double> step_ms;   // steady steps; eval and warm-up excluded
  double images = 0;             // processed by the steady steps
  std::int64_t steps = 0;
  double final_loss = 0;
  double time_to_target_s = 0;   // 0 when the target was not reached
  double epochs_to_target = 0;
  std::int64_t phase_violations = 0;
  std::vector<double> rank0_loss;  // per step
  core::TrainResult result;
};

Call timed_call(const core::TrainConfig& c, const Workload& w) {
  auto log = std::make_shared<StepLog>();
  core::TrainConfig cc = c;
  cc.metrics_sink = log;
  Call call;
  const double t0 = now_s();
  call.result = core::train(cc);
  const std::vector<StepLog::Rec> recs = log->take();
  call.steps = call.result.total_steps;
  call.final_loss = call.result.final_train_loss;

  const auto batch = static_cast<double>(call.result.global_batch);
  double prev_t = t0;
  std::int64_t rank0 = 0;
  for (const StepLog::Rec& rec : recs) {
    // Phase accounting invariants: exposed all-reduce never exceeds the
    // total, and the sequential phases never sum past the step.
    const double exposed = field(rec.line, "allreduce_exposed");
    const double seq = field(rec.line, "data_load") + field(rec.line, "forward") +
                       field(rec.line, "bn_sync") + field(rec.line, "backward") +
                       field(rec.line, "grad_pack") + exposed +
                       field(rec.line, "optimizer");
    constexpr double kEpsMs = 1e-6;
    if (exposed > field(rec.line, "allreduce") + kEpsMs ||
        seq > field(rec.line, "step_ms") + kEpsMs) {
      ++call.phase_violations;
    }
    if (field(rec.line, "rank") != 0) continue;
    call.rank0_loss.push_back(field(rec.line, "loss"));
    if (rank0 == 0) call.setup_s = rec.t - t0;
    // The step that ran the eval is not a training step's time.
    if (field(rec.line, "eval") == 0 && rank0 > kWarmSteps) {
      call.step_ms.push_back((rec.t - prev_t) * 1e3);
      call.images += batch;
    }
    prev_t = rec.t;
    ++rank0;
  }
  if (w.target > 0) {
    for (const core::EvalPoint& p : call.result.history) {
      if (p.eval_accuracy >= w.target) {
        call.time_to_target_s = p.wall_seconds;
        call.epochs_to_target = p.epoch;
        break;
      }
    }
  }
  return call;
}

std::int64_t steps_per_epoch(const core::TrainConfig& c) {
  return c.dataset.train_size / (c.per_replica_batch * c.replicas);
}

std::int64_t planned_steps(const core::TrainConfig& c) {
  return std::llround(c.epochs * static_cast<double>(steps_per_epoch(c)));
}

// Checks one call's outputs against the reference run; failures count the
// call's steps as failed.
void check_call(Result& r, const Call& call, const Workload& w,
                double ref_loss) {
  if (std::memcmp(&call.final_loss, &ref_loss, sizeof(double)) != 0) {
    r.fail("final loss " + std::to_string(call.final_loss) +
               " is not bitwise equal to the reference " +
               std::to_string(ref_loss),
           call.steps);
  } else if (w.target > 0 && call.time_to_target_s == 0) {
    r.fail("eval top-1 never reached the target", call.steps);
  }
}

// ---- the traced step driver ------------------------------------------------
//
// Rebuilds core::train's step from the library's public calls, under
// dist::run_replicas with the same config, with a span around each call.
// Eval is left out: the driver times the training step only.

// Packs each param as backward announces it and submits a bucket to the
// comm thread once all its params are packed (the trainer's bucketed
// gradient sync, rebuilt from FlatBuffer and BucketReducer).
class GradSync final : public nn::GradReadySink {
 public:
  GradSync(core::FlatBuffer* buf, const std::vector<nn::Param*>* params,
           std::vector<core::BucketSpan> partition,
           dist::BucketReducer* reducer, SpanLog* log, int tid)
      : buf_(buf), params_(params), partition_(std::move(partition)),
        reducer_(reducer), log_(log), tid_(tid) {
    bucket_of_.resize(params_->size());
    for (std::size_t b = 0; b < partition_.size(); ++b) {
      for (std::size_t p = partition_[b].first_param;
           p < partition_[b].first_param + partition_[b].param_count; ++p) {
        bucket_of_[p] = b;
      }
    }
    for (std::size_t p = 0; p < params_->size(); ++p) index_[(*params_)[p]] = p;
  }

  void begin_step(std::int64_t step) {
    step_ = step;
    pending_.clear();
    for (const core::BucketSpan& s : partition_) pending_.push_back(s.param_count);
    packed_.assign(params_->size(), 0);
    first_submit_s_ = 0;
  }

  void on_grads_ready(const std::vector<nn::Param*>& ready) override {
    Scope s(*log_, "core.pack_in_backward", tid_, step_);
    for (nn::Param* p : ready) {
      const auto it = index_.find(p);
      if (it == index_.end() || packed_[it->second]) continue;
      pack(it->second);
    }
  }

  // Packs and submits whatever backward never announced.
  void flush() {
    for (std::size_t p = 0; p < params_->size(); ++p) {
      if (!packed_[p]) pack(p);
    }
  }

  double first_submit_s() const { return first_submit_s_; }

 private:
  void pack(std::size_t p) {
    buf_->pack_grad(*params_, p);
    packed_[p] = 1;
    const std::size_t b = bucket_of_[p];
    if (--pending_[b] == 0) {
      Scope s(*log_, "dist.submit", tid_, step_);
      if (first_submit_s_ == 0) first_submit_s_ = now_s();
      reducer_->submit(static_cast<std::int64_t>(b),
                       buf_->bucket_span(partition_[b]));
    }
  }

  core::FlatBuffer* buf_;
  const std::vector<nn::Param*>* params_;
  std::vector<core::BucketSpan> partition_;
  dist::BucketReducer* reducer_;
  SpanLog* log_;
  int tid_;
  std::unordered_map<const nn::Param*, std::size_t> index_;
  std::vector<std::size_t> bucket_of_, pending_;
  std::vector<char> packed_;
  std::int64_t step_ = 0;
  double first_submit_s_ = 0;
};

struct DriverRun {
  std::vector<double> step_ms, loss;  // rank 0, per step
  double build_ms = 0;
  double skew_ms = 0;                 // run_replicas body-time spread
  double comm_s = 0;                  // DrainStats, rank 0
  std::uint64_t buckets = 0;
  dist::CollectiveStats allreduce;    // rank 0's gradient collectives
};

DriverRun drive(const core::TrainConfig& c, std::int64_t steps, SpanLog& log) {
  const data::SyntheticImageNet dataset(c.dataset);
  const int world = c.replicas;
  dist::Communicator comm(world);
  DriverRun out;
  std::vector<double> body_s;
  auto body = [&](int rank) {
    const int tid = 2 * rank;
    effnet::ModelSpec spec = c.spec;
    spec.resolution = c.dataset.resolution;
    effnet::ModelOptions mopts;
    mopts.init_seed = c.seed;
    mopts.replica_id = rank;
    mopts.num_classes = c.dataset.num_classes;
    const double b0 = now_s();
    std::unique_ptr<effnet::EfficientNet> model;
    {
      Scope s(log, "effnet.build", tid, -1);
      model = std::make_unique<effnet::EfficientNet>(spec, mopts);
    }
    if (rank == 0) out.build_ms = (now_s() - b0) * 1e3;
    const std::vector<nn::Param*> params = nn::parameters_of(*model);
    core::FlatBuffer bucket(params);
    std::unique_ptr<dist::BucketReducer> reducer;
    std::unique_ptr<GradSync> sync;
    if (c.overlap) {
      reducer = std::make_unique<dist::BucketReducer>(&comm, rank, c.allreduce);
      sync = std::make_unique<GradSync>(&bucket, &params,
                                        bucket.partition(c.bucket_bytes),
                                        reducer.get(), &log, tid);
      model->set_grad_ready_sink(sync.get());
    }
    const auto optimizer = optim::make_optimizer(c.optimizer);
    optim::LrScheduleConfig sched = c.schedule;
    sched.base_lr = optim::scaled_base_lr(
        c.lr_per_256, c.per_replica_batch * static_cast<tensor::Index>(world));
    sched.total_epochs = c.epochs;
    const auto schedule = optim::make_schedule(sched);
    data::TrainLoader loader(&dataset, rank, world, c.per_replica_batch);
    const tensor::Index spe = loader.steps_per_epoch();

    for (std::int64_t step = 0; step < steps; ++step) {
      const double t0 = now_s();
      data::Batch batch;
      {
        Scope s(log, "data.batch", tid, step);
        batch = loader.batch(step / spe, step % spe);
      }
      if (sync) sync->begin_step(step);
      nn::LossResult loss;
      {
        Scope s(log, "nn.forward", tid, step);
        nn::zero_grads(params);
        const tensor::Tensor logits = model->forward(batch.images, true);
        loss = nn::softmax_cross_entropy(logits, batch.labels,
                                         c.label_smoothing);
      }
      {
        Scope s(log, "nn.backward", tid, step);
        model->backward(loss.grad_logits);
      }
      if (!sync) {
        {
          Scope s(log, "core.pack", tid, step);
          bucket.pack_grads(params);
        }
        Scope s(log, "dist.allreduce", tid, step);
        comm.allreduce_sum(rank, bucket.span(), c.allreduce, "grad_allreduce");
      } else {
        {
          Scope s(log, "core.pack", tid, step);
          sync->flush();
        }
        dist::DrainStats drained;
        {
          Scope s(log, "dist.wait_all", tid, step);
          drained = reducer->wait_all();
        }
        if (log.enabled()) {
          // The comm thread's busy window as the main thread sees it: from
          // the first bucket handed over until the join returned.
          log.add({"dist.comm_window", tid + 1, step, sync->first_submit_s(),
                   now_s()});
        }
        if (rank == 0) {
          out.comm_s += drained.comm_seconds;
          out.buckets += drained.buckets;
        }
      }
      {
        Scope s(log, "core.unpack", tid, step);
        bucket.unpack_grads(params, 1.0f / static_cast<float>(world));
      }
      {
        Scope s(log, "optim.step", tid, step);
        optimizer->step(params, schedule->lr(static_cast<double>(step) /
                                             static_cast<double>(spe)));
      }
      if (rank == 0) {
        out.step_ms.push_back((now_s() - t0) * 1e3);
        out.loss.push_back(loss.loss);
      }
    }
    if (rank == 0) out.allreduce = comm.stats(0).allreduce_total();
  };
  dist::run_replicas(world, [&](int rank) {
    try {
      body(rank);
    } catch (...) {
      comm.abort();  // unblock peers waiting at a collective
      throw;
    }
  }, &body_s);
  out.skew_ms = (*std::max_element(body_s.begin(), body_s.end()) -
                 *std::min_element(body_s.begin(), body_s.end())) * 1e3;
  return out;
}

// One traced repetition's per-layer metrics, from the traced driver's spans
// and counters and from the core::train call beside it.
Result layer_metrics(const SpanLog& log, const DriverRun& traced,
                     const Call& call, std::int64_t steps, bool overlap) {
  Result r;
  const double n = static_cast<double>(steps - kWarmSteps);
  const double fsteps = static_cast<double>(steps);
  auto per_step_ms = [&](const char* name) {
    return log.total(name, 0, kWarmSteps) * 1e3 / n;
  };
  r.add("data.batch_ms", per_step_ms("data.batch"), "ms");
  r.add("effnet.build_ms", traced.build_ms, "ms");
  r.add("nn.forward_ms", per_step_ms("nn.forward"), "ms");
  r.add("nn.backward_ms",
        per_step_ms("nn.backward") - per_step_ms("core.pack_in_backward"), "ms");
  r.add("dist.allreduce_ms", traced.allreduce.seconds * 1e3 / fsteps, "ms");
  if (overlap) {
    r.add("dist.exposed_ms", per_step_ms("dist.wait_all"), "ms");
    r.add("dist.comm_ms", traced.comm_s * 1e3 / fsteps, "ms");
    r.add("dist.buckets_per_step", static_cast<double>(traced.buckets) / fsteps,
          "count");
  } else {
    r.add("dist.exposed_ms", per_step_ms("dist.allreduce"), "ms");
    r.add("dist.comm_ms", per_step_ms("dist.allreduce"), "ms");
    r.add("dist.buckets_per_step",
          static_cast<double>(traced.allreduce.calls) / fsteps, "count");
  }
  r.add("dist.bytes_per_step",
        static_cast<double>(traced.allreduce.bytes) / fsteps, "bytes");
  r.add("dist.skew_ms", traced.skew_ms, "ms");
  r.add("core.pack_ms",
        per_step_ms("core.pack") + per_step_ms("core.pack_in_backward") +
            per_step_ms("core.unpack"),
        "ms");
  r.add("core.phase_violations", static_cast<double>(call.phase_violations),
        "count");
  r.add("optim.step_ms", per_step_ms("optim.step"), "ms");
  add_trainer_phases(r, &call.result.phase_totals);
  r.add("train.time_to_target_s", call.time_to_target_s, "s");
  r.add("train.epochs_to_target", call.epochs_to_target, "epochs");
  return r;
}

// The traced run: repetitions of (untraced driver, core::train, traced
// driver), interleaved so host drift hits all three alike, until the run's
// time is spent. Layer metrics are means over repetitions; the Chrome trace
// holds the last traced repetition.
Result run_traced(const Options& opts, const Workload& w,
                  const core::TrainConfig& cfg) {
  Result r;
  SpanLog log;
  const std::int64_t steps = planned_steps(cfg);
  auto as_recorded = [](double v) {  // a step record's 9 significant digits
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return std::strtod(buf, nullptr);
  };

  // The first work in a process runs slow; warm up for one epoch.
  drive(cfg, steps_per_epoch(cfg), log);
  std::vector<double> plain_ms, traced_ms, train_ms;
  std::vector<Result> reps;
  const double start = now_s();
  do {
    const DriverRun plain = drive(cfg, steps, log);
    const Call call = timed_call(cfg, w);
    log.clear();
    log.set_enabled(true);
    const DriverRun traced = drive(cfg, steps, log);
    log.set_enabled(false);
    r.attempted += 2 * steps + call.steps;

    // The driver must compute what core::train computes: the same loss on
    // every step, to the digits a step record carries.
    std::vector<double> want = call.rank0_loss;
    if (opts.perturb && !want.empty()) want.back() *= 1 + 1e-6;
    for (const DriverRun* d : {&plain, &traced}) {
      bool same = d->loss.size() == want.size();
      for (std::size_t i = 0; same && i < want.size(); ++i) {
        same = as_recorded(d->loss[i]) == want[i];
      }
      if (!same) r.fail("driver per-step loss differs from core::train's", steps);
    }
    plain_ms.insert(plain_ms.end(), plain.step_ms.begin() + kWarmSteps,
                    plain.step_ms.end());
    traced_ms.insert(traced_ms.end(), traced.step_ms.begin() + kWarmSteps,
                     traced.step_ms.end());
    train_ms.insert(train_ms.end(), call.step_ms.begin(), call.step_ms.end());
    reps.push_back(layer_metrics(log, traced, call, steps, cfg.overlap));
  } while (now_s() - start < opts.seconds * static_cast<double>(reps.size()) /
                                 static_cast<double>(reps.size() + 1));
  r.note("check: driver per-step loss %s core::train's over %zu x %lld steps",
         r.correct ? "equals" : "DIFFERS FROM", reps.size(),
         static_cast<long long>(steps));

  for (std::size_t i = 0; i < reps.front().metrics.size(); ++i) {
    Metric m = reps.front().metrics[i];
    m.value = 0;
    for (const Result& rep : reps) m.value += rep.metrics[i].value;
    m.value /= static_cast<double>(reps.size());
    r.metrics.push_back(m);
  }
  const KernelRates k = probe_kernels(w.spec, w.resolution, w.batch, opts.seed);
  r.add("tensor.gemm_gflops", k.gemm_gflops, "GFLOP/s");
  r.add("tensor.dwconv_gflops", k.dwconv_gflops, "GFLOP/s");
  {
    // The IR is idle during training; these time it on the trained model's
    // architecture and eval batch shape, for reference.
    effnet::ModelSpec spec = w.spec;
    spec.resolution = w.resolution;
    effnet::ModelOptions mopts;
    mopts.init_seed = cfg.seed;
    mopts.num_classes = w.classes;
    const data::SyntheticImageNet dataset(cfg.dataset);
    const data::Batch b = data::EvalLoader(&dataset, 0, 1, w.batch).batch(0);
    Result ir;
    add_ir_metrics(ir, spec, mopts, b.images, log, 3);
    for (const Metric& m : ir.metrics) {
      if (m.name != "effnet.build_ms") r.metrics.push_back(m);
    }
  }
  const double plain_p50 = median(plain_ms);
  r.add("trace.overhead_frac", median(traced_ms) / plain_p50 - 1, "ratio");
  r.add("trace.driver_gap_frac", plain_p50 / median(train_ms) - 1, "ratio");
  r.note("layer times are rank-0 means per step over %zu repetitions of %lld "
         "steps (first %d of each skipped); trainer.* are core::train's phase "
         "totals per step, eval amortized; core.phase_violations and "
         "train.* are per core::train call",
         reps.size(), static_cast<long long>(steps), kWarmSteps);
  finish_trace(r, log, opts.trace_out);
  return r;
}

}  // namespace

Result run_train(const Options& opts, const ThreadPlan& plan) {
  const Workload w = workload_for(opts.workload);
  const core::TrainConfig cfg = make_config(w, plan, opts.seed);
  if (opts.trace) return run_traced(opts, w, cfg);

  Result r;
  // Call 0 warms the process up (its first work runs slow): it is checked
  // but not timed. The timed calls stop when one more would likely run past
  // the measured time.
  std::vector<Call> calls;
  double start = 0;
  auto timed = [&] { return calls.empty() ? 0 : calls.size() - 1; };
  while (timed() < kMinCalls ||
         now_s() - start < opts.seconds * static_cast<double>(timed()) /
                               static_cast<double>(timed() + 1)) {
    try {
      calls.push_back(timed_call(cfg, w));
    } catch (const std::exception& e) {
      r.attempted += planned_steps(cfg);
      r.fail(std::string("train() threw: ") + e.what(), planned_steps(cfg));
      break;
    }
    r.attempted += calls.back().steps;
    if (calls.size() == 1) start = now_s();
  }
  const double rss = peak_rss_mb();

  // Untimed reference run, after the peak RSS is read so that figure covers
  // the timed configuration alone: replica consistency asserted every epoch,
  // and for train_comm the serial all-reduce path, which the overlapped runs
  // must match bit for bit.
  core::TrainConfig ref_cfg = cfg;
  ref_cfg.check_consistency = true;
  ref_cfg.overlap = false;
  const core::TrainResult ref = core::train(ref_cfg);
  double ref_loss = ref.final_train_loss;
  if (opts.perturb) ref_loss = std::nextafter(ref_loss, 1e9);
  r.note("check: reference run (check_consistency, serial all-reduce) final "
         "loss %.17g, peak top-1 %.4f",
         ref.final_train_loss, ref.peak_accuracy);
  for (const Call& c : calls) check_call(r, c, w, ref_loss);

  std::vector<double> setup, ttt, ett, step_ms;
  double images = 0;
  for (std::size_t i = 1; i < calls.size(); ++i) {
    const Call& c = calls[i];
    setup.push_back(c.setup_s);
    step_ms.insert(step_ms.end(), c.step_ms.begin(), c.step_ms.end());
    images += c.images;
    ttt.push_back(c.time_to_target_s);
    ett.push_back(c.epochs_to_target);
  }
  const Steady st = steady_stats(step_ms, images, w.tail_pct);
  r.note("%zu timed train() calls of %lld steps after 1 warm-up call; "
         "statistics over all %zu steady steps, p%.0f tail with %zu beyond; "
         "setup_s is the median over timed calls",
         timed(), static_cast<long long>(planned_steps(cfg)), st.samples,
         st.pct, st.beyond);
  if (w.target > 0) {
    r.note("time_to_target_s %.4f s (median; top-1 >= %.2f reached at epoch "
           "%.0f, median)",
           median(ttt), w.target, median(ett));
  }
  r.add("setup_s", median(setup), "s");
  r.add("img_per_s", st.img_per_s, "img/s");
  r.add("step_ms_p50", st.p50_ms, "ms");
  r.add("step_ms_tail", st.tail_ms, "ms");
  r.add("peak_rss_mb", rss, "MiB");
  return r;
}

}  // namespace podnet::perfbench
