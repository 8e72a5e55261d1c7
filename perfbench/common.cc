#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>

#include "bench.h"
#include "obs/json.h"
#include "tensor/conv_direct.h"
#include "tensor/gemm.h"
#include "tensor/tensor.h"

namespace podnet::perfbench {

void Result::fail(const std::string& what, std::int64_t steps) {
  correct = false;
  failed += steps;
  notes.push_back("CHECK FAILED: " + what);
}

void Result::note(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  notes.emplace_back(buf);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

}  // namespace

Steady steady_stats(const std::vector<double>& ms, double images,
                    double tail_pct) {
  Steady s;
  s.pct = tail_pct;
  double total_ms = 0;
  for (double v : ms) total_ms += v;
  s.img_per_s = total_ms > 0 ? images / (total_ms * 1e-3) : 0;
  s.samples = ms.size();
  s.p50_ms = median(ms);
  s.tail_ms = percentile(ms, tail_pct);
  s.beyond = static_cast<std::size_t>(std::count_if(
      ms.begin(), ms.end(), [&](double v) { return v > s.tail_ms; }));
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SpanLog::total(const char* name, int tid, std::int64_t from) const {
  std::lock_guard<std::mutex> lock(mu_);
  double s = 0;
  for (const SpanRec& r : spans_) {
    if (r.tid == tid && r.step >= from && std::string_view(r.name) == name) {
      s += r.end_s - r.begin_s;
    }
  }
  return s;
}

bool SpanLog::write_chrome(const std::string& path, std::string* error) const {
  std::lock_guard<std::mutex> lock(mu_);
  double t0 = spans_.empty() ? 0 : spans_.front().begin_s;
  std::set<int> tids;
  for (const SpanRec& r : spans_) {
    t0 = std::min(t0, r.begin_s);
    tids.insert(r.tid);
  }
  obs::JsonWriter w;
  w.field("displayTimeUnit", "ms").begin_array("traceEvents");
  for (int tid : tids) {
    const std::string label = (tid % 2 ? "comm rank " : "replica rank ") +
                              std::to_string(tid / 2);
    w.begin_object()
        .field("name", "thread_name")
        .field("ph", "M")
        .field("pid", 1)
        .field("tid", tid)
        .begin_object("args")
        .field("name", label)
        .end_object()
        .end_object();
  }
  for (const SpanRec& r : spans_) {
    w.begin_object()
        .field("name", r.name)
        .field("ph", "X")
        .field("pid", 1)
        .field("tid", r.tid)
        .field("ts", (r.begin_s - t0) * 1e6)
        .field("dur", (r.end_s - r.begin_s) * 1e6)
        .begin_object("args")
        .field("step", r.step)
        .end_object()
        .end_object();
  }
  w.end_array();
  const std::string text = w.str();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out) {
      *error = "cannot write " + path;
      return false;
    }
  }
  std::ifstream in(path, std::ios::binary);
  const std::string back((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  if (!obs::is_json_object(back)) {
    *error = path + " is not one JSON object";
    return false;
  }
  std::size_t events = 0;
  for (std::size_t at = back.find("\"ph\":\"X\""); at != std::string::npos;
       at = back.find("\"ph\":\"X\"", at + 1)) {
    ++events;
  }
  if (events != spans_.size() || events == 0) {
    *error = path + " holds " + std::to_string(events) + " complete events, " +
             "expected " + std::to_string(spans_.size());
    return false;
  }
  return true;
}

void finish_trace(Result& r, const SpanLog& log, const std::string& path) {
  std::string error;
  if (!log.write_chrome(path, &error)) {
    r.fail("trace: " + error, 0);
    return;
  }
  r.note("trace: %zu spans written to %s and validated", log.size(),
         path.c_str());
}

void add_trainer_phases(Result& r, const obs::PhaseTotals* totals) {
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    const auto phase = static_cast<obs::Phase>(p);
    if (phase == obs::Phase::kBnSync) continue;
    const double ms =
        totals != nullptr && totals->steps > 0
            ? totals->phase(phase) * 1e3 / static_cast<double>(totals->steps)
            : 0;
    r.add(std::string("trainer.") + obs::phase_name(phase) + "_ms", ms, "ms");
  }
}

KernelRates probe_kernels(const effnet::ModelSpec& spec,
                          effnet::Index resolution, effnet::Index batch,
                          std::uint64_t seed) {
  using tensor::Index;
  struct Gemm {
    Index m, n, k;
  };
  std::vector<Gemm> gemms;
  std::vector<tensor::ConvGeometry> dws;
  // Walk the blocks the way effnet::analyze does, keeping the shapes.
  Index hw = (resolution + 1) / 2;  // after the stride-2 stem
  for (const effnet::BlockArgs& b : effnet::expand_blocks(spec)) {
    const Index expanded = b.input_filters * b.expand_ratio;
    if (b.expand_ratio != 1) {
      gemms.push_back({batch * hw * hw, expanded, b.input_filters});
    }
    dws.push_back(tensor::ConvGeometry::same(batch, hw, hw, expanded, b.kernel,
                                             b.stride));
    hw = (hw + b.stride - 1) / b.stride;
    gemms.push_back({batch * hw * hw, b.output_filters, expanded});
  }
  gemms.push_back({batch * hw * hw, effnet::scaled_head_filters(spec),
                   effnet::expand_blocks(spec).back().output_filters});

  tensor::Rng rng(seed);
  auto randn = [&](Index n) {
    return tensor::Tensor::randn(tensor::Shape{n}, rng);
  };
  // Repeat each pass until it has run for at least `min_s`, then keep the
  // fastest pass: the kernels' rate, not the host's interruptions.
  constexpr double kMinSeconds = 0.15;
  auto best_rate = [&](double flops, auto&& pass) {
    pass();  // warm caches and pack buffers
    double best = 0;
    const double start = now_s();
    do {
      const double t0 = now_s();
      pass();
      best = std::max(best, flops / (now_s() - t0) / 1e9);
    } while (now_s() - start < kMinSeconds);
    return best;
  };

  KernelRates rates;
  {
    std::vector<tensor::Tensor> a, b, c;
    double flops = 0;
    for (const Gemm& g : gemms) {
      a.push_back(randn(g.m * g.k));
      b.push_back(randn(g.k * g.n));
      c.push_back(randn(g.m * g.n));
      flops += 2.0 * static_cast<double>(g.m * g.n * g.k);
    }
    rates.gemm_gflops = best_rate(flops, [&] {
      for (std::size_t i = 0; i < gemms.size(); ++i) {
        const Gemm& g = gemms[i];
        tensor::gemm_contiguous(false, false, g.m, g.n, g.k, 1.f, a[i].data(),
                                b[i].data(), 0.f, c[i].data());
      }
    });
  }
  {
    std::vector<tensor::Tensor> x, w, y;
    double flops = 0;
    for (const tensor::ConvGeometry& g : dws) {
      x.push_back(randn(g.batch * g.in_h * g.in_w * g.in_c));
      w.push_back(randn(g.kernel_h * g.kernel_w * g.in_c));
      y.push_back(randn(g.batch * g.out_h * g.out_w * g.in_c));
      flops += 2.0 * static_cast<double>(g.batch * g.out_h * g.out_w * g.in_c *
                                         g.kernel_h * g.kernel_w);
    }
    rates.dwconv_gflops = best_rate(flops, [&] {
      for (std::size_t i = 0; i < dws.size(); ++i) {
        tensor::conv::depthwise_forward(dws[i], x[i].data(), w[i].data(),
                                        y[i].data());
      }
    });
  }
  return rates;
}

}  // namespace podnet::perfbench
