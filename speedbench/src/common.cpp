// speedbench -- clocks, process usage, spans, statistics, llama layer probes.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "bench.hpp"
#include "llama/kernels.hpp"
#include "llama/sampler.hpp"

namespace speedbench {

namespace {
using Clock = std::chrono::steady_clock;
Clock::time_point g_start = Clock::now();
}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double SecondsSinceStart() {
  return std::chrono::duration<double>(Clock::now() - g_start).count();
}

ProcessUsage ReadProcessUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcessUsage u;
  u.user_s = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6;
  u.sys_s = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
  u.minor_faults = ru.ru_minflt;
  u.peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  return u;
}

// ------------------------------------------------------------ Tracer

int Tracer::Begin(const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, NowSeconds(), 0.0, parent});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  spans_[id].end = NowSeconds();
  open_.pop_back();
}

double Tracer::Total(const std::string& name) const {
  double t = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) t += s.end - s.start;
  }
  return t;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(f, "{\"clock\": \"host steady_clock, us from first span\", "
                  "\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"end_us\": %.3f, \"parent\": %d}%s\n",
                 i, s.name, (s.start - t0) * 1e6, (s.end - t0) * 1e6,
                 s.parent, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

void RunResult::Check(CheckResult r) {
  if (!r.ok) {
    correct = false;
    std::fprintf(stderr, "CHECK FAILED %s: %s\n", r.name.c_str(),
                 r.detail.c_str());
  }
  checks.push_back(std::move(r));
}

// ------------------------------------------------------------ statistics

double BestOfRounds(const std::vector<std::vector<double>>& segment_s) {
  std::vector<double> best = segment_s.front();
  for (const auto& round : segment_s) {
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], round[i]);
    }
  }
  return std::accumulate(best.begin(), best.end(), 0.0);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

namespace {
std::vector<double> Softmax(std::span<const float> logits, double t) {
  const double mx = *std::max_element(logits.begin(), logits.end());
  std::vector<double> p(logits.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    p[i] = std::exp((logits[i] - mx) / t);
    sum += p[i];
  }
  for (double& x : p) x /= sum;
  return p;
}
}  // namespace

std::int32_t NucleusSize(std::span<const float> logits, double temperature,
                         double top_p) {
  std::vector<double> p = Softmax(logits, temperature);
  std::sort(p.begin(), p.end(), std::greater<>());
  double cum = 0.0;
  std::int32_t n = 0;
  for (double x : p) {
    cum += x;
    ++n;
    if (cum > top_p) break;
  }
  return n;
}

double EntropyNats(std::span<const float> logits) {
  double h = 0.0;
  for (double x : Softmax(logits, 1.0)) {
    if (x > 0.0) h -= x * std::log(x);
  }
  return h;
}

// ------------------------------------------------------------ llama probes

double MatMulGmacsPerSecond(const Shape& s) {
  // The three weight shapes of one forward: dim x dim (wq/wo),
  // hidden x dim (w1/w3), vocab x dim (classifier).
  const std::int64_t shapes[3][2] = {
      {s.dim, s.dim}, {s.hidden_dim, s.dim}, {s.vocab_size, s.dim}};
  Rng rng(17);
  double macs = 0.0, secs = 0.0;
  for (const auto& sh : shapes) {
    std::vector<float> w(static_cast<std::size_t>(sh[0] * sh[1]));
    std::vector<float> x(static_cast<std::size_t>(sh[1]));
    std::vector<float> out(static_cast<std::size_t>(sh[0]));
    for (float& v : w) v = static_cast<float>(rng.Gauss());
    for (float& v : x) v = static_cast<float>(rng.Gauss());
    // About 50 M MACs per shape, whatever the model size.
    const std::int64_t reps = std::max<std::int64_t>(1, 50'000'000 / (sh[0] * sh[1]));
    const double t0 = NowSeconds();
    for (std::int64_t r = 0; r < reps; ++r) {
      speedllm::llama::MatMul(out, w, x, sh[0], sh[1]);
      x[0] += out[0] * 1e-9f;  // keep every repetition live
    }
    secs += NowSeconds() - t0;
    macs += static_cast<double>(reps * sh[0] * sh[1]);
  }
  return macs / secs * 1e-9;
}

void SamplerLayer(const std::vector<std::vector<float>>& logits,
                  RunResult& r) {
  if (logits.empty()) return;
  speedllm::llama::SamplerConfig sc;
  sc.temperature = kChatTemperature;
  sc.top_p = kChatTopP;
  sc.seed = 5;
  speedllm::llama::Sampler sampler(sc);
  double secs = 0.0, nucleus = 0.0, entropy = 0.0;
  std::vector<float> scratch;
  for (const auto& l : logits) {
    scratch = l;
    const double t0 = NowSeconds();
    sampler.Sample(scratch);
    secs += NowSeconds() - t0;
    nucleus += NucleusSize(l, kChatTemperature, kChatTopP);
    entropy += EntropyNats(l);
  }
  const double n = static_cast<double>(logits.size());
  r.Layer("llama.sample_us", secs / n * 1e6, "us");
  r.Layer("llama.nucleus_tokens", nucleus / n, "tokens");
  r.Layer("llama.entropy_nats", entropy / n, "nats");
}

}  // namespace speedbench
