// Shared pieces of the repository benchmark (see perfbench/README.md):
// the run options, the result record every workload fills, order
// statistics, and the in-memory span log the traced run writes out as a
// Chrome trace.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "effnet/model.h"
#include "obs/metrics.h"
#include "tensor/tensor.h"

namespace podnet::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Deliberately corrupts the reference a correctness check compares
  // against, so a run can show that its checks catch a wrong output.
  bool perturb = false;
  std::string trace_out;  // Chrome trace path; required with --trace 1
};

// How many threads a workload runs, and the kernel pool size it sets
// through PODNET_THREADS before any kernel runs.
struct ThreadPlan {
  int replicas = 1;
  int kernel_threads = 1;  // per replica
  int comm_threads = 0;    // one per replica with bucketed overlap on
  int total() const { return replicas * kernel_threads + comm_threads; }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable lines, printed first

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Records a failed check; `steps` of the attempted work count as failed.
  void fail(const std::string& what, std::int64_t steps);
  void note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

// ---- statistics -------------------------------------------------------------

double median(std::vector<double> v);

// A run's steady-state statistics over every steady step (train steps after
// warm-up, eval steps excluded; or eval batches), unfiltered, so a sporadic
// slow step shows in the tail: img_per_s is `images` over the summed step
// time, and p50 and the tail percentile are over all `ms` samples. The tail
// percentile is fixed per workload, chosen so a full-length run leaves at
// least ten samples beyond it; `beyond` states how many did.
struct Steady {
  double img_per_s = 0, p50_ms = 0, tail_ms = 0, pct = 0;
  std::size_t samples = 0, beyond = 0;
};
Steady steady_stats(const std::vector<double>& ms, double images,
                    double tail_pct);

// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

// ---- spans ------------------------------------------------------------------

double now_s();

// Spans recorded by the benchmark around its calls into the library, kept
// in memory and written once at exit. `tid` is a logical track: 2*rank for
// a replica's main thread, 2*rank+1 for its communication thread.
struct SpanRec {
  const char* name;
  int tid;
  std::int64_t step;
  double begin_s, end_s;
};

class SpanLog {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
  }
  void add(const SpanRec& s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }
  // Summed seconds of spans named `name` on track `tid` with step >= from.
  double total(const char* name, int tid, std::int64_t from = 0) const;
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  // Writes Chrome trace-event JSON, then re-reads the file and checks it
  // parses and holds one complete event per span. Returns false (with
  // `error` set) when it does not.
  bool write_chrome(const std::string& path, std::string* error) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;
};

// RAII span; records nothing when the log is disabled (the untraced run).
class Scope {
 public:
  Scope(SpanLog& log, const char* name, int tid, std::int64_t step)
      : log_(log.enabled() ? &log : nullptr),
        name_(name),
        tid_(tid),
        step_(step),
        begin_(log_ ? now_s() : 0) {}
  ~Scope() {
    if (log_) log_->add({name_, tid_, step_, begin_, now_s()});
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  int tid_;
  std::int64_t step_;
  double begin_;
};

// Writes the traced run's spans to `path` as a Chrome trace, validates the
// file, and records the outcome in `r` (a bad trace fails the run).
void finish_trace(Result& r, const SpanLog& log, const std::string& path);

// Adds trainer.<phase>_ms for core::train's step phases (obs::phase_name
// spelling; bn_sync is left out, no workload has BN groups): per-step means
// of `totals`, or zeros when null (a workload without core::train).
void add_trainer_phases(Result& r, const obs::PhaseTotals* totals);

// ---- layer probes shared by the workloads -----------------------------------

// Adds the ir.* per-layer metrics for `spec` evaluated on `x`: medians of
// `reps` compiles, and the steady-state run time over a few runs.
void add_ir_metrics(Result& r, const effnet::ModelSpec& spec,
                    const effnet::ModelOptions& mopts, const tensor::Tensor& x,
                    SpanLog& log, int reps);

// Achieved GFLOP/s of tensor::gemm over the model's 1x1-convolution GEMM
// shapes, and of tensor::conv::depthwise_forward over its depthwise layers,
// at `batch` images of `resolution` pixels.
struct KernelRates {
  double gemm_gflops = 0;
  double dwconv_gflops = 0;
};
KernelRates probe_kernels(const effnet::ModelSpec& spec,
                          effnet::Index resolution, effnet::Index batch,
                          std::uint64_t seed);

// ---- workloads --------------------------------------------------------------

Result run_train(const Options& opts, const ThreadPlan& plan);
Result run_eval(const Options& opts);

}  // namespace podnet::perfbench
