// speedbench -- correctness checks, and the self-test that plants one
// fault per check and shows each check catches it.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "accel/roofline.hpp"
#include "api/engine.hpp"
#include "bench.hpp"
#include "compiler/compiler.hpp"
#include "hw/u280_config.hpp"
#include "llama/checkpoint.hpp"
#include "runtime/device.hpp"

namespace speedbench {

namespace {
std::string Str(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}
}  // namespace

CheckResult CheckLogits(std::span<const float> got,
                        std::span<const double> want, std::int32_t pos,
                        double* max_err) {
  CheckResult r{"logits_vs_float64", true, ""};
  if (got.size() != want.size()) {
    return {r.name, false, "vocab size differs at pos " + std::to_string(pos)};
  }
  double scale = 1.0;
  for (double w : want) scale = std::max(scale, std::fabs(w));
  double err = 0.0;
  std::size_t worst = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double e = std::fabs(static_cast<double>(got[i]) - want[i]);
    if (!(e <= err)) {  // also catches NaN
      err = std::isnan(e) ? INFINITY : e;
      worst = i;
    }
  }
  if (max_err != nullptr) *max_err = std::max(*max_err, err / scale);
  if (!(err <= kLogitTolerance * scale)) {
    r.ok = false;
    r.detail = "pos " + std::to_string(pos) + " token " +
               std::to_string(worst) + ": |diff| " + Str(err) + " > " +
               Str(kLogitTolerance * scale);
  }
  return r;
}

CheckResult CheckSameTokens(const std::string& what,
                            const std::vector<std::int32_t>& a,
                            const std::vector<std::int32_t>& b) {
  CheckResult r{"same_tokens", true, ""};
  if (a == b) return r;
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  r.ok = false;
  r.detail = what + ": first difference at index " + std::to_string(i) +
             " (lengths " + std::to_string(a.size()) + " and " +
             std::to_string(b.size()) + ")";
  return r;
}

CheckResult CheckRoofline(const std::vector<std::uint64_t>& cycles,
                          const std::vector<std::uint64_t>& bounds) {
  CheckResult r{"cycles_at_least_roofline", true, ""};
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    if (cycles[i] < bounds[i]) {
      r.ok = false;
      r.detail = "token " + std::to_string(i) + ": " +
                 std::to_string(cycles[i]) + " cycles < bound " +
                 std::to_string(bounds[i]);
      break;
    }
  }
  return r;
}

CheckResult CheckDrained(const std::vector<std::int64_t>& blocks_in_use) {
  CheckResult r{"kv_pools_drained", true, ""};
  for (std::size_t c = 0; c < blocks_in_use.size(); ++c) {
    if (blocks_in_use[c] != 0) {
      r.ok = false;
      r.detail = "card " + std::to_string(c) + " holds " +
                 std::to_string(blocks_in_use[c]) + " blocks after drain";
      break;
    }
  }
  return r;
}

CheckResult CheckFinish(const std::vector<Served>& served,
                        const std::vector<Request>& requests) {
  CheckResult r{"finish_by_length", true, ""};
  for (std::size_t i = 0; i < served.size(); ++i) {
    const Served& s = served[i];
    const std::int32_t want = requests[i].max_new_tokens;
    if (!s.finished_by_length || s.generated != want ||
        static_cast<std::int32_t>(s.streamed.size()) != want) {
      r.ok = false;
      r.detail = "request " + std::to_string(i) + ": generated " +
                 std::to_string(s.generated) + ", streamed " +
                 std::to_string(s.streamed.size()) + ", want " +
                 std::to_string(want) +
                 (s.finished_by_length ? "" : ", not kLength");
      break;
    }
  }
  return r;
}

CheckResult CheckTimestamps(const std::vector<Served>& served,
                            double clock_hz) {
  CheckResult r{"arrival_admission_first_completion_ordered", true, ""};
  // Compared in whole cycles of the simulated clock: the engine places
  // an arrival on the nearest cycle, up to half a cycle before it.
  auto cyc = [clock_hz](double t) { return std::llround(t * clock_hz); };
  for (std::size_t i = 0; i < served.size(); ++i) {
    const Served& s = served[i];
    if (!(cyc(s.arrival) <= cyc(s.admission) &&
          cyc(s.admission) <= cyc(s.first_token) &&
          cyc(s.first_token) <= cyc(s.completion))) {
      r.ok = false;
      r.detail = "request " + std::to_string(i) + ": " + Str(s.arrival) +
                 " / " + Str(s.admission) + " / " + Str(s.first_token) +
                 " / " + Str(s.completion);
      break;
    }
  }
  return r;
}

CheckResult CheckTpotFloor(const std::vector<Served>& served,
                           double floor_seconds) {
  CheckResult r{"tpot_at_least_single_stream_step", true, ""};
  // Relative slack for rounding in cycle -> second conversions.
  const double floor = floor_seconds * (1.0 - 1e-9);
  for (std::size_t i = 0; i < served.size(); ++i) {
    if (!(served[i].tpot() >= floor)) {
      r.ok = false;
      r.detail = "request " + std::to_string(i) + ": tpot " +
                 Str(served[i].tpot()) + " s < step " + Str(floor_seconds);
      break;
    }
  }
  return r;
}

CheckResult CheckTokenIdentity(std::int64_t delivered, std::int64_t total,
                               std::int64_t hit_tokens) {
  CheckResult r{"delivered_equals_computed_plus_cached", true, ""};
  if (delivered != total + hit_tokens) {
    r.ok = false;
    r.detail = std::to_string(delivered) + " != " + std::to_string(total) +
               " + " + std::to_string(hit_tokens);
  }
  return r;
}

// ------------------------------------------------------------ self-test

namespace {

namespace sl = speedllm;

struct SelfTest {
  int failures = 0;
  void Expect(const char* what, const CheckResult& r, bool want_ok) {
    const bool good = r.ok == want_ok;
    std::printf("%-4s %-46s %s%s\n", good ? "ok" : "FAIL", what,
                r.ok ? "check passes" : "check fails: ",
                r.ok ? "" : r.detail.c_str());
    if (!good) ++failures;
  }
};

}  // namespace

int RunSelfTest() {
  SelfTest t;
  const Shape shape = ServeShape();
  const Checkpoint ck = GenerateCheckpoint(shape, 7);
  const std::string path = ".bench_out/selftest-model.bin";
  if (!WriteCheckpointFile(ck, path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  auto weights = sl::llama::ReadCheckpoint(path);
  std::remove(path.c_str());
  if (!weights.ok()) return 1;
  const sl::hw::U280Config u280 = sl::hw::U280Config::Default();
  const double kClockHz = u280.clock_mhz * 1e6;
  auto dev = sl::runtime::AcceleratorDevice::Create(
      *weights, sl::runtime::Variant::kSpeedLLM, u280);
  auto unopt = sl::runtime::AcceleratorDevice::Create(
      *weights, sl::runtime::Variant::kUnoptimized, u280);
  if (!dev.ok() || !unopt.ok()) return 1;

  // Logits and cycles over a 12-token sequence.
  Reference64 ref(ck);
  std::vector<std::vector<float>> got;
  std::vector<std::vector<double>> want;
  std::vector<std::uint64_t> cycles, bounds;
  dev->ResetSequence();
  for (std::int32_t pos = 0; pos < 12; ++pos) {
    const std::int32_t tok = 3 + pos * 37;
    auto l = dev->Forward(tok, pos);
    if (!l.ok()) return 1;
    got.emplace_back(l->begin(), l->end());
    want.push_back(ref.Forward(tok, pos));
    cycles.push_back(dev->executor().last_stats().cycles);
    bounds.push_back(
        sl::accel::AnalyzeRoofline(dev->program(), u280, pos).bound_cycles);
  }
  auto all_logits = [&](const std::vector<std::vector<float>>& g) {
    for (std::size_t p = 0; p < g.size(); ++p) {
      CheckResult r = CheckLogits(g[p], want[p], static_cast<std::int32_t>(p),
                                  nullptr);
      if (!r.ok) return r;
    }
    return CheckResult{"logits_vs_float64", true, ""};
  };
  t.Expect("logits: clean", all_logits(got), true);
  auto bad = got;
  bad[5][100] += 0.05f;
  t.Expect("logits: one perturbed logit", all_logits(bad), false);

  t.Expect("roofline: clean", CheckRoofline(cycles, bounds), true);
  auto low = cycles;
  low[3] = bounds[3] - 1;
  t.Expect("roofline: one cycle count below bound", CheckRoofline(low, bounds),
           false);

  // Variant token identity on a greedy generation.
  sl::llama::SamplerConfig greedy;
  greedy.temperature = 0.0f;
  sl::llama::Sampler s1(greedy), s2(greedy);
  const std::vector<std::int32_t> prompt = {1, 40, 41, 42, 43};
  auto g1 = dev->Generate(prompt, 10, s1);
  auto g2 = unopt->Generate(prompt, 10, s2);
  if (!g1.ok() || !g2.ok()) return 1;
  t.Expect("variant tokens: clean",
           CheckSameTokens("variants", g1->generated_tokens,
                           g2->generated_tokens),
           true);
  auto flipped = g2->generated_tokens;
  flipped[4] = (flipped[4] + 1) % shape.vocab_size;
  t.Expect("variant tokens: one flipped token",
           CheckSameTokens("variants", g1->generated_tokens, flipped), false);

  // A small serving run for the serving checks.
  auto compiled = sl::compiler::Compile(
      dev->program().model, sl::compiler::CompilerOptions::SpeedLLM(), u280);
  if (!compiled.ok()) return 1;
  sl::api::EngineConfig ec;
  ec.num_cards = 2;
  ec.sampler.temperature = 0.0f;
  sl::api::Engine engine(compiled->program, *weights, u280, ec);
  std::vector<Request> reqs;
  for (int i = 0; i < 12; ++i) {
    std::vector<std::int32_t> p = {1};
    for (int j = 0; j < 20 + i; ++j) p.push_back(3 + (i * 31 + j * 7) % 500);
    reqs.push_back({p, 6, i * 1e-4});
  }
  std::vector<Served> served(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    engine.StepUntil(reqs[i].arrival_s);
    sl::serving::ServingRequest sr;
    sr.prompt = reqs[i].prompt;
    sr.max_new_tokens = reqs[i].max_new_tokens;
    sr.arrival_seconds = reqs[i].arrival_s;
    sl::api::StreamCallbacks cb;
    cb.on_token = [&served, i](sl::api::RequestHandle, std::int32_t tok,
                               double) { served[i].streamed.push_back(tok); };
    cb.on_finish = [&served, i](sl::api::RequestHandle,
                                sl::api::FinishReason reason,
                                const sl::serving::RequestOutcome& o) {
      Served& s = served[i];
      s.finished_by_length = reason == sl::api::FinishReason::kLength;
      s.generated = static_cast<std::int32_t>(o.generated.size());
      s.arrival = o.arrival_seconds;
      s.admission = o.admission_seconds;
      s.first_token = o.first_token_seconds;
      s.completion = o.completion_seconds;
    };
    if (!engine.Submit(std::move(sr), std::move(cb)).ok()) return 1;
  }
  engine.RunToCompletion();
  std::vector<std::int64_t> in_use;
  for (int c = 0; c < engine.num_cards(); ++c) {
    in_use.push_back(engine.kv_blocks_in_use(c));
  }
  auto report = engine.Finish();
  if (!report.ok()) return 1;
  std::int64_t delivered = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    delivered += static_cast<std::int64_t>(reqs[i].prompt.size()) +
                 served[i].generated;
  }
  dev->ResetSequence();
  auto step = dev->Forward(reqs[0].prompt[0], 0);
  if (!step.ok()) return 1;
  const double floor = dev->executor().last_stats().seconds;

  sl::llama::SamplerConfig stream_sc = ec.sampler;
  stream_sc.seed = ec.sampler.seed + 3 * 7919;
  const auto replayed = ReplayStream(*weights, stream_sc, reqs[3], nullptr);
  t.Expect("stream replay: clean",
           CheckSameTokens("request 3", replayed, served[3].streamed), true);
  auto wrong = served[3].streamed;
  wrong[2] = (wrong[2] + 1) % shape.vocab_size;
  t.Expect("stream replay: one flipped token",
           CheckSameTokens("request 3", replayed, wrong), false);

  t.Expect("drained: clean", CheckDrained(in_use), true);
  auto leak = in_use;
  leak[1] += 1;
  t.Expect("drained: one extra block in use", CheckDrained(leak), false);

  t.Expect("finish: clean", CheckFinish(served, reqs), true);
  auto short_stream = served;
  short_stream[2].streamed.pop_back();
  t.Expect("finish: one stream a token short", CheckFinish(short_stream, reqs),
           false);

  t.Expect("timestamps: clean", CheckTimestamps(served, kClockHz), true);
  auto early = served;
  early[7].admission = early[7].arrival - 1e-6;
  t.Expect("timestamps: admission before arrival", CheckTimestamps(early, kClockHz),
           false);

  t.Expect("tpot floor: clean", CheckTpotFloor(served, floor), true);
  auto fast = served;
  fast[4].completion = fast[4].first_token + fast[4].generated * floor * 0.5;
  t.Expect("tpot floor: one request faster than a step",
           CheckTpotFloor(fast, floor), false);

  const auto& m = report->merged;
  t.Expect("token identity: clean",
           CheckTokenIdentity(delivered, m.total_tokens,
                              m.prefix_cache_hit_tokens),
           true);
  t.Expect("token identity: one token lost",
           CheckTokenIdentity(delivered - 1, m.total_tokens,
                              m.prefix_cache_hit_tokens),
           false);

  std::printf("self-test: %s (%d unexpected)\n",
              t.failures == 0 ? "every check catches its planted fault"
                              : "FAILED",
              t.failures);
  return t.failures == 0 ? 0 : 1;
}

}  // namespace speedbench
