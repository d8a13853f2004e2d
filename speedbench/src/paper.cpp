// speedbench -- paper_decode (the paper's host program) and the
// single-stream accelerator probe the serving workloads share.
#include <cstdio>

#include "accel/roofline.hpp"
#include "bench.hpp"
#include "llama/checkpoint.hpp"

namespace speedbench {

namespace sl = speedllm;

bool AcceleratorProbe::Create(const sl::llama::Weights& weights,
                              const sl::hw::U280Config& u280, Tracer& tr) {
  u280_ = u280;
  auto make = [&](sl::runtime::Variant v,
                  std::unique_ptr<sl::runtime::AcceleratorDevice>& out) {
    ScopedSpan span(tr, "runtime.AcceleratorDevice.Create");
    auto d = sl::runtime::AcceleratorDevice::Create(weights, v, u280);
    if (!d.ok()) {
      std::fprintf(stderr, "%s\n", d.status().ToString().c_str());
      return false;
    }
    out = std::make_unique<sl::runtime::AcceleratorDevice>(std::move(*d));
    return true;
  };
  const double a = NowSeconds();
  if (!make(sl::runtime::Variant::kSpeedLLM, speed_)) return false;
  create_s_ = NowSeconds() - a;
  return make(sl::runtime::Variant::kUnoptimized, unopt_);
}

bool AcceleratorProbe::Generate(const std::vector<Request>& reqs, Tracer& tr,
                                std::vector<Generation>& out,
                                std::int64_t& failed,
                                std::vector<double>* call_s) {
  out.clear();
  sl::llama::SamplerConfig greedy;
  greedy.temperature = 0.0f;
  for (const Request& q : reqs) {
    Generation g;
    for (int v = 0; v < 2; ++v) {
      sl::llama::Sampler sampler(greedy);
      ScopedSpan span(tr, "runtime.Generate");
      const double a = NowSeconds();
      auto res = (v == 0 ? speed_ : unopt_)
                     ->Generate(q.prompt, q.max_new_tokens, sampler);
      if (call_s != nullptr) call_s->push_back(NowSeconds() - a);
      if (!res.ok()) {
        std::fprintf(stderr, "%s\n", res.status().ToString().c_str());
        ++failed;
        return false;
      }
      (v == 0 ? g.speed : g.unopt) = std::move(*res);
    }
    out.push_back(std::move(g));
  }
  return true;
}

void AcceleratorProbe::Replay(const std::vector<Generation>& gens,
                              const Checkpoint* ck, RunResult& r,
                              std::vector<std::vector<float>>* keep) {
  std::vector<std::uint64_t> cycles[2], bounds[2];
  double max_err = 0.0;
  for (const Generation& g : gens) {
    r.Check(CheckSameTokens("SpeedLLM vs Unoptimized",
                            g.speed.generated_tokens,
                            g.unopt.generated_tokens));
    std::vector<std::int32_t> seq = g.speed.prompt_tokens;
    seq.insert(seq.end(), g.speed.generated_tokens.begin(),
               g.speed.generated_tokens.end());
    const auto prompt_len = static_cast<std::int32_t>(g.speed.prompt_tokens.size());
    std::unique_ptr<Reference64> ref;
    if (ck != nullptr) ref = std::make_unique<Reference64>(*ck);
    for (int v = 0; v < 2; ++v) {
      sl::runtime::AcceleratorDevice& dev = v == 0 ? *speed_ : *unopt_;
      dev.ResetSequence();
      for (std::int32_t pos = 0; pos < static_cast<std::int32_t>(seq.size());
           ++pos) {
        const double a = NowSeconds();
        auto logits = dev.Forward(seq[pos], pos);
        const double host_s = NowSeconds() - a;
        if (!logits.ok()) {
          r.Check({"replay_forward", false, logits.status().ToString()});
          return;
        }
        const sl::accel::TokenRunStats& st = dev.executor().last_stats();
        cycles[v].push_back(st.cycles);
        bounds[v].push_back(
            sl::accel::AnalyzeRoofline(dev.program(), u280_, pos).bound_cycles);
        if (v != 0) continue;
        (pos < prompt_len ? prefill_us_ : decode_us_).push_back(host_s * 1e6);
        stats_ += st;
        bound_cycles_ += bounds[v].back();
        ++tokens_;
        if (keep != nullptr && keep->size() < 256) {
          keep->emplace_back(logits->begin(), logits->end());
        }
        if (ref != nullptr) {
          CheckResult c =
              CheckLogits(*logits, ref->Forward(seq[pos], pos), pos, &max_err);
          if (!c.ok) {
            r.Check(std::move(c));
            return;
          }
        }
      }
    }
  }
  if (ck != nullptr) {
    r.Check({"logits_vs_float64", true, ""});
    max_logit_err_ = max_err;
  }
  r.Check(CheckRoofline(cycles[0], bounds[0]));
  r.Check(CheckRoofline(cycles[1], bounds[1]));
}

double AcceleratorProbe::DecodeStepSeconds(std::int32_t token) {
  speed_->ResetSequence();
  if (!speed_->Forward(token, 0).ok()) return 0.0;
  return speed_->executor().last_stats().seconds;
}

void AcceleratorProbe::EmitEndToEnd(const std::vector<Generation>& gens,
                                    RunResult& r) {
  double tokens = 0.0, joules = 0.0, speed_s = 0.0, unopt_s = 0.0;
  for (const Generation& g : gens) {
    const auto& m = g.speed.metrics;
    tokens += static_cast<double>(m.prompt_tokens + m.generated_tokens);
    joules += m.energy.dynamic_j();
    speed_s += m.total_seconds();
    unopt_s += g.unopt.metrics.total_seconds();
  }
  r.E2e("sim_tokens_per_joule", tokens / joules, "tokens/J");
  r.E2e("sim_speedup_vs_unoptimized", unopt_s / speed_s, "x");
}

void AcceleratorProbe::EmitLayers(RunResult& r) {
  const double n = static_cast<double>(tokens_);
  r.Layer("runtime.device_create_s", create_s_, "s");
  r.Layer("accel.launches_per_token", static_cast<double>(stats_.launches) / n,
          "count");
  r.Layer("accel.forward_us.prefill", Percentile(prefill_us_, 0.5), "us");
  r.Layer("accel.forward_us.decode", Percentile(decode_us_, 0.5), "us");
  r.Layer("accel.cycles_per_token", static_cast<double>(stats_.cycles) / n,
          "cycles");
  r.Layer("accel.roofline_ratio",
          static_cast<double>(stats_.cycles) /
              static_cast<double>(bound_cycles_),
          "ratio");
  static const char* kUnits[] = {"dma_in", "dma_out", "mpe", "sfu", "ctrl"};
  for (int u = 0; u < 5; ++u) {
    r.Layer(std::string("accel.busy_cycles.") + kUnits[u],
            static_cast<double>(stats_.unit_busy[u]) / n, "cycles");
  }
  r.Layer("accel.hbm_bytes_per_token", static_cast<double>(stats_.hbm_bytes) / n,
          "bytes");
  const sl::hw::EnergyBreakdown& e = stats_.energy;
  const std::pair<const char*, double> parts[] = {
      {"hbm", e.hbm_j},       {"bram", e.bram_j},
      {"mac", e.mac_j},       {"sfu", e.sfu_j},
      {"launch", e.launch_j}, {"unit_active", e.unit_active_j},
      {"unit_idle", e.unit_idle_j}, {"static", e.static_j}};
  for (const auto& [name, j] : parts) {
    r.Layer(std::string("accel.energy_uj.") + name, j / n * 1e6, "uJ");
  }
}

bool RunPaperDecode(const RunOptions& opt, Tracer& tr, RunResult& r) {
  const sl::hw::U280Config u280 = sl::hw::U280Config::Default();

  // ---- set-up: checkpoint read + both devices (each compiles).
  sl::StatusOr<sl::llama::Weights> weights = sl::Internal("unread");
  {
    ScopedSpan span(tr, "llama.ReadCheckpoint");
    weights = sl::llama::ReadCheckpoint(opt.model_path);
  }
  if (!weights.ok()) {
    std::fprintf(stderr, "%s\n", weights.status().ToString().c_str());
    return false;
  }
  AcceleratorProbe probe;
  if (!probe.Create(*weights, u280, tr)) return false;
  const double setup_s = SecondsSinceStart();
  const ProcessUsage setup_usage = ReadProcessUsage();

  const Shape shape = PaperShape();
  const std::vector<Request> reqs = PaperRequests(opt.seed, shape);

  // ---- timed phase: whole rounds of the prompt set on both variants.
  std::vector<std::vector<Generation>> rounds;
  std::vector<std::vector<double>> call_s;
  double cpu = 0.0, sys = 0.0;
  const double start = NowSeconds();
  do {
    rounds.emplace_back();
    call_s.emplace_back();
    const ProcessUsage before = ReadProcessUsage();
    r.attempted += 2 * static_cast<std::int64_t>(reqs.size());
    if (!probe.Generate(reqs, tr, rounds.back(), r.failed, &call_s.back())) {
      break;
    }
    const ProcessUsage after = ReadProcessUsage();
    cpu += after.user_s - before.user_s + after.sys_s - before.sys_s;
    sys += after.sys_s - before.sys_s;
  } while (NowSeconds() - start < opt.seconds);
  const ProcessUsage end_usage = ReadProcessUsage();
  if (r.failed > 0) return true;

  // ---- checks: rounds repeat; variants agree; logits match the float64
  // forward at every position; cycles never beat the roofline bound.
  const std::vector<Generation>& gens = rounds.front();
  for (std::size_t i = 1; i < rounds.size(); ++i) {
    bool same = true;
    for (std::size_t j = 0; j < gens.size(); ++j) {
      const auto& a = gens[j].speed;
      const auto& b = rounds[i][j].speed;
      same = same && a.generated_tokens == b.generated_tokens &&
             a.metrics.total_cycles == b.metrics.total_cycles &&
             gens[j].unopt.metrics.total_cycles ==
                 rounds[i][j].unopt.metrics.total_cycles;
    }
    r.Check({"rounds_repeat_exactly", same,
             "round " + std::to_string(i) + " differs from round 0"});
  }
  const Checkpoint ck = GenerateCheckpoint(shape, opt.seed);
  std::vector<std::vector<float>> logits;  // for the traced sampler figures
  probe.Replay(gens, &ck, r, tr.on() ? &logits : nullptr);
  std::fprintf(stderr, "max |logit error| / max |logit| = %.3g (tolerance %g)\n",
               probe.max_logit_error(), kLogitTolerance);

  // ---- end-to-end metrics (SpeedLLM variant, simulated U280 clock).
  std::vector<double> ttft, tpot;
  double tokens = 0.0, sim_s = 0.0;
  for (const Generation& g : gens) {
    const auto& m = g.speed.metrics;
    ttft.push_back(m.prefill_seconds);
    tpot.push_back(m.decode_seconds / static_cast<double>(m.generated_tokens));
    tokens += static_cast<double>(m.prompt_tokens + m.generated_tokens);
    sim_s += m.total_seconds();
  }
  r.E2e("setup_s", setup_s, "s");
  r.E2e("peak_rss_mib", end_usage.peak_rss_mib, "MiB");
  // Both variants deliver the prompt set's tokens every round.
  r.E2e("host_tokens_per_s", 2.0 * tokens / BestOfRounds(call_s), "tokens/s");
  r.E2e("sim_ttft_p50_ms", Percentile(ttft, 0.5) * 1e3, "ms");
  r.E2e("sim_ttft_p99_ms", Percentile(ttft, 0.99) * 1e3, "ms");
  r.E2e("sim_tpot_p50_ms", Percentile(tpot, 0.5) * 1e3, "ms");
  r.E2e("sim_tpot_p99_ms", Percentile(tpot, 0.99) * 1e3, "ms");
  r.E2e("sim_tokens_per_s", tokens / sim_s, "tokens/s");
  probe.EmitEndToEnd(gens, r);

  if (!tr.on()) return true;

  // ---- per-layer metrics (traced run only). The serving layers do not
  // run in this workload; their metrics read 0.
  const double n_rounds = static_cast<double>(rounds.size());
  r.Layer("host.cpu_s", cpu / n_rounds, "s");
  r.Layer("host.sys_s", sys / n_rounds, "s");
  r.Layer("host.minor_faults", static_cast<double>(setup_usage.minor_faults),
          "count");
  r.Layer("llama.checkpoint_read_s", tr.Total("llama.ReadCheckpoint"), "s");
  r.Layer("llama.matmul_gmacs_per_s", MatMulGmacsPerSecond(shape), "GMAC/s");
  SamplerLayer(logits, r);
  {
    sl::StatusOr<sl::compiler::CompileResult> c = sl::Internal("unset");
    const double a = NowSeconds();
    {
      ScopedSpan span(tr, "compiler.Compile");
      c = sl::compiler::Compile(weights->config,
                                sl::compiler::CompilerOptions::SpeedLLM(), u280);
    }
    r.Layer("compiler.compile_s", NowSeconds() - a, "s");
    r.Layer("compiler.instructions",
            c.ok() ? static_cast<double>(c->program.instrs.size()) : 0.0,
            "count");
  }
  probe.EmitLayers(r);
  return true;
}

}  // namespace speedbench
