// speedbench -- the repository benchmark: shared declarations.
//
// The benchmark makes every input itself from one seed (a llama2.c
// checkpoint from its own weight generator, prompts, lengths and arrival
// times), runs one named workload against libspeedllm through its public
// entry points, checks the outputs against independent paths, and prints
// one JSON line of metrics. See speedbench/README.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hw/u280_config.hpp"
#include "llama/sampler.hpp"
#include "llama/weights.hpp"
#include "runtime/device.hpp"

namespace speedbench {

// ------------------------------------------------------------ clocks

/// Host seconds since the process started (static initialization): the
/// origin of setup_s.
double SecondsSinceStart();
double NowSeconds();

struct ProcessUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t minor_faults = 0;
  double peak_rss_mib = 0.0;
};
ProcessUsage ReadProcessUsage();

// ------------------------------------------------------------ inputs

/// SplitMix64: the benchmark's own generator, so no library change can
/// alter the inputs a seed makes.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  double Uniform();  // [0, 1)
  double Gauss();    // N(0, 1), Box-Muller
  std::int64_t Range(std::int64_t lo, std::int64_t hi);  // inclusive

 private:
  std::uint64_t state_;
};

/// llama2.c header fields.
struct Shape {
  std::int32_t dim = 0, hidden_dim = 0, n_layers = 0, n_heads = 0,
               n_kv_heads = 0, vocab_size = 0, seq_len = 0;
  std::int32_t head_dim() const { return dim / n_heads; }
  std::int32_t kv_dim() const { return head_dim() * n_kv_heads; }
};

/// stories15M: the model the paper evaluates.
Shape PaperShape();
/// The Tiny preset's shape with a 256-token context, for the serving runs.
Shape ServeShape();

/// All tensors of a llama2.c checkpoint in file order (shared
/// classifier), fp32, with the offset of each tensor group.
struct Checkpoint {
  Shape shape;
  std::vector<float> data;
  std::size_t emb = 0, rms_att = 0, wq = 0, wk = 0, wv = 0, wo = 0,
              rms_ffn = 0, w1 = 0, w2 = 0, w3 = 0, rms_final = 0;
};

/// Gain of the final RMSNorm for each shape. Gaussian weights give
/// near-uniform next-token distributions at unit gain; these gains make
/// them peaked like a trained small model's (README: "Inputs").
float FinalGain(const Shape& shape);

Checkpoint GenerateCheckpoint(const Shape& shape, std::uint64_t seed);
bool WriteCheckpointFile(const Checkpoint& ck, const std::string& path);

/// Float64 llama2 forward pass over the benchmark's own weights: the
/// independent path the executor's logits are checked against.
class Reference64 {
 public:
  explicit Reference64(const Checkpoint& ck);
  const std::vector<double>& Forward(std::int32_t token, std::int32_t pos);

 private:
  const Checkpoint& ck_;
  Shape s_;
  std::vector<double> x_, xb_, xb2_, hb_, hb2_, q_, att_, logits_;
  std::vector<double> kcache_, vcache_;  // [layer][seq][kv_dim]
};

struct Request {
  std::vector<std::int32_t> prompt;
  std::int32_t max_new_tokens = 0;
  double arrival_s = 0.0;
};

/// The four paper prompts: one per Fig. 2 prompt length L (8/16/32/64),
/// each L or L + 1 tokens long as the seed draws, so the simulated
/// figures move with the seed; 48 decode tokens each.
std::vector<Request> PaperRequests(std::uint64_t seed, const Shape& shape);
std::vector<Request> ChatRequests(std::uint64_t seed, const Shape& shape);
std::vector<Request> RagRequests(std::uint64_t seed, const Shape& shape);

inline constexpr std::int32_t kPaperDecodeTokens = 48;
inline constexpr std::int32_t kServeCards = 4;
/// Chat sampling: temperature 0.8, top-p 0.9.
inline constexpr float kChatTemperature = 0.8f;
inline constexpr float kChatTopP = 0.9f;

// ------------------------------------------------------------ checks

struct CheckResult {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Executor logits against the float64 forward at one position; the
/// tolerance is absolute, scaled by the largest reference logit.
CheckResult CheckLogits(std::span<const float> got,
                        std::span<const double> want, std::int32_t pos,
                        double* max_err);
inline constexpr double kLogitTolerance = 1e-4;

CheckResult CheckSameTokens(const std::string& what,
                            const std::vector<std::int32_t>& a,
                            const std::vector<std::int32_t>& b);
/// Simulated cycles of each token against its roofline lower bound.
CheckResult CheckRoofline(const std::vector<std::uint64_t>& cycles,
                          const std::vector<std::uint64_t>& bounds);
CheckResult CheckDrained(const std::vector<std::int64_t>& blocks_in_use);

/// One request's serving outcome, as the benchmark saw it.
struct Served {
  std::vector<std::int32_t> streamed;  // tokens from on_token
  std::int32_t generated = 0;          // outcome.generated.size()
  bool finished_by_length = false;
  double arrival = 0.0, admission = 0.0, first_token = 0.0, completion = 0.0;
  double tpot() const {
    return generated > 0 ? (completion - first_token) / generated : 0.0;
  }
};
CheckResult CheckFinish(const std::vector<Served>& served,
                        const std::vector<Request>& requests);
CheckResult CheckTimestamps(const std::vector<Served>& served,
                            double clock_hz);
/// TPOT of every request against the single-stream decode step.
CheckResult CheckTpotFloor(const std::vector<Served>& served,
                           double floor_seconds);
CheckResult CheckTokenIdentity(std::int64_t delivered, std::int64_t total,
                               std::int64_t hit_tokens);

/// Runs every check on planted faults; returns the process exit code.
int RunSelfTest();

// ------------------------------------------------------------ tracing

/// Spans (name, start, end, parent) recorded from the benchmark's side
/// of each call into a layer; kept in memory, written when the run ends.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }
  int Begin(const char* name);
  void End(int id);
  /// Total duration of spans named `name`.
  double Total(const std::string& name) const;
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start, end;
    int parent;
  };
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name)
      : t_(t), id_(t.on() ? t.Begin(name) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) t_.End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// ------------------------------------------------------------ results

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<CheckResult> checks;

  void Check(CheckResult r);
  void E2e(const std::string& n, double v, const char* unit) {
    end_to_end[n] = {v, unit};
  }
  void Layer(const std::string& n, double v, const char* unit) {
    per_layer[n] = {v, unit};
  }
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string model_path;
  std::string out_dir;
};

/// Host seconds of one round, best of N. Every round repeats the same
/// work cut into the same segments; the fastest time of each segment
/// across rounds is summed. Other processes on the host only ever slow
/// a segment down, so the sum tracks the program's own speed.
double BestOfRounds(const std::vector<std::vector<double>>& segment_s);

/// Interpolated percentile (p in [0, 1]) of `v`; sorts a copy.
double Percentile(std::vector<double> v, double p);

/// Top-p nucleus size of `logits` at temperature t (own softmax).
std::int32_t NucleusSize(std::span<const float> logits, double temperature,
                         double top_p);
double EntropyNats(std::span<const float> logits);

/// Direct llama::MatMul throughput at the model's three matmul shapes.
double MatMulGmacsPerSecond(const Shape& shape);
/// Sampler::Sample timing and nucleus size on captured logits, with the
/// chat settings.
void SamplerLayer(const std::vector<std::vector<float>>& logits,
                  RunResult& r);

/// Replays one request through llama::ReferenceModel with `sc` (the
/// engine's per-stream sampler); keeps up to 256 logit vectors.
std::vector<std::int32_t> ReplayStream(
    const speedllm::llama::Weights& weights,
    const speedllm::llama::SamplerConfig& sc, const Request& req,
    std::vector<std::vector<float>>* keep);

/// One request generated greedily on both paper variants.
struct Generation {
  speedllm::runtime::GenerationResult speed;  // SpeedLLM
  speedllm::runtime::GenerationResult unopt;  // Unoptimized
};

/// The paper's host program on one model: a SpeedLLM and an Unoptimized
/// AcceleratorDevice, Generate on both, and a per-token replay that
/// checks logits and roofline bounds and gathers the accel-layer figures.
class AcceleratorProbe {
 public:
  bool Create(const speedllm::llama::Weights& weights,
              const speedllm::hw::U280Config& u280, Tracer& tr);
  /// Greedy Generate of every request on both variants; false (and
  /// `failed` counted) if a call fails.
  bool Generate(const std::vector<Request>& reqs, Tracer& tr,
                std::vector<Generation>& out, std::int64_t& failed,
                std::vector<double>* call_s = nullptr);
  /// Forward over every position of each generation on both variants:
  /// variant tokens agree, cycles >= roofline bound, and (with `ck`)
  /// logits agree with the float64 forward.
  void Replay(const std::vector<Generation>& gens, const Checkpoint* ck,
              RunResult& r, std::vector<std::vector<float>>* keep);
  /// Simulated seconds of one single-stream SpeedLLM step at position 0.
  double DecodeStepSeconds(std::int32_t token);
  void EmitEndToEnd(const std::vector<Generation>& gens, RunResult& r);
  void EmitLayers(RunResult& r);
  double max_logit_error() const { return max_logit_err_; }

 private:
  speedllm::hw::U280Config u280_;
  std::unique_ptr<speedllm::runtime::AcceleratorDevice> speed_, unopt_;
  double create_s_ = 0.0;
  // SpeedLLM replay totals.
  speedllm::accel::TokenRunStats stats_;
  std::uint64_t bound_cycles_ = 0;
  std::int64_t tokens_ = 0;
  std::vector<double> prefill_us_, decode_us_;
  double max_logit_err_ = 0.0;
};

/// Each returns false when the workload cannot be set up.
bool RunPaperDecode(const RunOptions& opt, Tracer& tracer, RunResult& r);
bool RunServing(const RunOptions& opt, Tracer& tracer, RunResult& r);

}  // namespace speedbench
