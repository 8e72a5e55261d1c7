// perfbench: the repository benchmark. One process runs one workload for a
// fixed wall time, checks its outputs, and prints every metric with its
// unit; the last line of stdout is the machine-readable result.
//
//   perfbench --workload train_compute|train_comm|eval_ir --seed N
//             --seconds S --trace 0|1 [--trace-out PATH] [--perturb]
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate
// traced run that reports per-layer metrics and writes a Chrome trace to
// the --trace-out path it requires.
// Exit codes: 0 all checks passed, 1 a check failed, 2 bad usage, 3 the
// thread plan exceeds nproc (nothing is measured).
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "check/check.h"
#include "obs/json.h"
#include "tensor/simd.h"

namespace {

using namespace podnet;
using namespace podnet::perfbench;

// perfbench/CMakeLists.txt builds the library plain. Flags forced in from
// outside (CXXFLAGS) that would make the timings meaningless stop the build.
static_assert(!check::kEnabled, "perfbench does not time a PODNET_CHECK build");
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "perfbench does not time a sanitizer build"
#endif

// The build fingerprint: the top-level switches that still compile here.
const char* build_flags() {
#if defined(PODNET_PROFILE) && defined(__AVX2__)
  return "PROFILE NATIVE";
#elif defined(PODNET_PROFILE)
  return "PROFILE";
#elif defined(__AVX2__)
  return "NATIVE";
#else
  return "plain";
#endif
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload train_compute|train_comm|eval_ir "
               "--seed N --seconds S --trace 0 | --trace 1 --trace-out PATH "
               "[--perturb]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opts.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--trace-out" && has_value) {
      opts.trace_out = argv[++i];
    } else if (arg == "--perturb") {
      opts.perturb = true;
    } else {
      return usage(argv[0]);
    }
  }
  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  ThreadPlan plan;
  if (opts.workload == "train_compute" || opts.workload == "eval_ir") {
    plan = {1, nproc, 0};
  } else if (opts.workload == "train_comm") {
    plan = {2, 1, 2};  // bucketed overlap: one comm thread per replica
  } else {
    return usage(argv[0]);
  }
  if (opts.seconds <= 0 || (opts.trace && opts.trace_out.empty())) {
    return usage(argv[0]);
  }

  // The kernel pool is sized once, on first use; set it before any kernel.
  setenv("PODNET_THREADS", std::to_string(plan.kernel_threads).c_str(), 1);

  namespace simd = tensor::simd;
  {
    obs::JsonWriter w;
    w.field("kind", "fingerprint")
        .field("workload", opts.workload)
        .field("seed", opts.seed)
        .field("trace", opts.trace)
        .field("nproc", nproc)
        .field("simd_detected", simd::level_name(simd::detected_level()))
        .field("simd_active", simd::level_name(simd::active_level()))
        .field("replicas", plan.replicas)
        .field("kernel_threads", plan.kernel_threads)
        .field("comm_threads", plan.comm_threads)
        .field("thread_plan", plan.total())
        .field("build", build_flags());
    std::printf("%s\n", w.str().c_str());
  }
  if (plan.total() > nproc) {
    std::fprintf(stderr,
                 "refusing to time: thread plan %d exceeds nproc %d\n",
                 plan.total(), nproc);
    return 3;
  }

  Result result;
  try {
    result = opts.workload == "eval_ir" ? run_eval(opts) : run_train(opts, plan);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s threw: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& line : result.notes) std::printf("%s\n", line.c_str());
  const double fail_frac =
      result.attempted > 0 ? static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted)
                           : 1.0;
  std::printf("fail_frac %.6f (%lld of %lld %s failed)\n", fail_frac,
              static_cast<long long>(result.failed),
              static_cast<long long>(result.attempted),
              opts.workload == "eval_ir" ? "batches" : "steps");
  for (const Metric& m : result.metrics) {
    std::printf("%-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = result.correct && result.attempted > 0;
  std::printf("correct: %s\n", correct ? "yes" : "NO");

  // Built by hand rather than with obs::JsonWriter, which rounds numbers to
  // 9 significant digits: values are printed with every digit measured.
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"metrics\":{",
              correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::printf("%s%s:{\"value\":%.17g,\"unit\":%s}", i ? "," : "",
                obs::json_escape(m.name).c_str(),
                std::isfinite(m.value) ? m.value : 0.0,
                obs::json_escape(m.unit).c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
