// speedbench -- chat_poisson and rag_shared_prefix: open-loop arrivals
// into a 4-card api::Engine, driven online (StepUntil to each arrival,
// then Submit).
#include <algorithm>
#include <cstdio>
#include <memory>

#include "api/engine.hpp"
#include "bench.hpp"
#include "compiler/compiler.hpp"
#include "llama/checkpoint.hpp"
#include "llama/reference.hpp"
#include "serving/kv_pool.hpp"

namespace speedbench {

namespace sl = speedllm;

namespace {

struct Round {
  std::vector<Served> served;
  sl::serving::ClusterReport report;
  std::vector<std::int64_t> blocks_in_use;
  std::int64_t delivered = 0;
  std::int64_t failed = 0;
  std::vector<double> segment_s;  // host time per 100 submissions, + drain
  // Host time inside each api call (measured when `timed_calls`).
  double submit_s = 0.0, step_s = 0.0, finish_s = 0.0;
  ProcessUsage usage_before, usage_after;
};

// Streams every request of `reqs` through `engine` in arrival order.
Round RunRound(sl::api::Engine& engine, const std::vector<Request>& reqs,
               Tracer& tr, bool timed_calls) {
  Round rd;
  rd.served.resize(reqs.size());
  double cb_s = 0.0;
  auto clock = [timed_calls] { return timed_calls ? NowSeconds() : 0.0; };
  rd.usage_before = ReadProcessUsage();
  double mark = NowSeconds();
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (i > 0 && i % 100 == 0) {
      const double now = NowSeconds();
      rd.segment_s.push_back(now - mark);
      mark = now;
    }
    {
      ScopedSpan span(tr, "api.StepUntil");
      const double a = clock();
      engine.StepUntil(reqs[i].arrival_s);
      rd.step_s += clock() - a;
    }
    sl::serving::ServingRequest sr;
    sr.prompt = reqs[i].prompt;
    sr.max_new_tokens = reqs[i].max_new_tokens;
    sr.arrival_seconds = reqs[i].arrival_s;
    Served* s = &rd.served[i];
    sl::api::StreamCallbacks cb;
    cb.on_token = [s, &cb_s, &clock](sl::api::RequestHandle, std::int32_t tok,
                                     double) {
      const double a = clock();
      s->streamed.push_back(tok);
      cb_s += clock() - a;
    };
    cb.on_finish = [s, &cb_s, &clock](sl::api::RequestHandle,
                                      sl::api::FinishReason reason,
                                      const sl::serving::RequestOutcome& o) {
      const double a = clock();
      s->finished_by_length = reason == sl::api::FinishReason::kLength;
      s->generated = static_cast<std::int32_t>(o.generated.size());
      s->arrival = o.arrival_seconds;
      s->admission = o.admission_seconds;
      s->first_token = o.first_token_seconds;
      s->completion = o.completion_seconds;
      cb_s += clock() - a;
    };
    ScopedSpan span(tr, "api.Submit");
    const double a = clock();
    if (!engine.Submit(std::move(sr), std::move(cb)).ok()) ++rd.failed;
    rd.submit_s += clock() - a;
  }
  {
    ScopedSpan span(tr, "api.RunToCompletion");
    const double a = clock();
    engine.RunToCompletion();
    rd.step_s += clock() - a;
  }
  for (int c = 0; c < engine.num_cards(); ++c) {
    rd.blocks_in_use.push_back(engine.kv_blocks_in_use(c));
  }
  {
    ScopedSpan span(tr, "api.Finish");
    const double a = clock();
    auto report = engine.Finish();
    rd.finish_s += clock() - a;
    if (report.ok()) rd.report = std::move(*report);
  }
  rd.segment_s.push_back(NowSeconds() - mark);
  rd.usage_after = ReadProcessUsage();
  rd.step_s -= cb_s;  // the benchmark's own callbacks are not engine time
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    rd.delivered += static_cast<std::int64_t>(reqs[i].prompt.size()) +
                    rd.served[i].generated;
  }
  return rd;
}

bool SameSimulatedOutcome(const Round& a, const Round& b) {
  if (a.served.size() != b.served.size()) return false;
  for (std::size_t i = 0; i < a.served.size(); ++i) {
    const Served& x = a.served[i];
    const Served& y = b.served[i];
    if (x.streamed != y.streamed || x.admission != y.admission ||
        x.first_token != y.first_token || x.completion != y.completion) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<std::int32_t> ReplayStream(const sl::llama::Weights& weights,
                                       const sl::llama::SamplerConfig& sc,
                                       const Request& req,
                                       std::vector<std::vector<float>>* keep) {
  sl::llama::ReferenceModel ref(weights, nullptr);
  sl::llama::Sampler sampler(sc);
  std::vector<std::int32_t> out;
  std::vector<float> logits;
  std::int32_t pos = 0;
  for (std::int32_t t : req.prompt) {
    auto l = ref.Forward(t, pos++);
    if (!l.ok()) return out;
    logits.assign(l->begin(), l->end());
  }
  while (static_cast<std::int32_t>(out.size()) < req.max_new_tokens) {
    if (keep != nullptr && keep->size() < 256) keep->push_back(logits);
    out.push_back(sampler.Sample(logits));
    if (static_cast<std::int32_t>(out.size()) == req.max_new_tokens) break;
    auto l = ref.Forward(out.back(), pos++);
    if (!l.ok()) return out;
    logits.assign(l->begin(), l->end());
  }
  return out;
}

bool RunServing(const RunOptions& opt, Tracer& tr, RunResult& r) {
  const bool chat = opt.workload == "chat_poisson";
  const sl::hw::U280Config u280 = sl::hw::U280Config::Default();

  // ---- set-up: checkpoint read + compile + engine construction.
  sl::StatusOr<sl::llama::Weights> weights = sl::Internal("unread");
  {
    ScopedSpan span(tr, "llama.ReadCheckpoint");
    weights = sl::llama::ReadCheckpoint(opt.model_path);
  }
  if (!weights.ok()) {
    std::fprintf(stderr, "%s\n", weights.status().ToString().c_str());
    return false;
  }
  sl::StatusOr<sl::compiler::CompileResult> compiled = sl::Internal("unset");
  {
    ScopedSpan span(tr, "compiler.Compile");
    compiled = sl::compiler::Compile(
        weights->config, sl::compiler::CompilerOptions::SpeedLLM(), u280);
  }
  if (!compiled.ok()) {
    std::fprintf(stderr, "%s\n", compiled.status().ToString().c_str());
    return false;
  }
  const sl::accel::Program& program = compiled->program;
  sl::api::EngineConfig ec;
  ec.num_cards = kServeCards;
  if (chat) {
    ec.sampler.temperature = kChatTemperature;
    ec.sampler.top_p = kChatTopP;
  } else {
    ec.sampler.temperature = 0.0f;
  }
  ec.sampler.seed = opt.seed;
  std::unique_ptr<sl::api::Engine> engine;
  double engine_create_s = 0.0;
  {
    ScopedSpan span(tr, "api.Engine");
    const double a = NowSeconds();
    engine = std::make_unique<sl::api::Engine>(program, *weights, u280, ec);
    engine_create_s = NowSeconds() - a;
  }
  const double setup_s = SecondsSinceStart();
  const ProcessUsage setup_usage = ReadProcessUsage();

  const Shape shape = ServeShape();
  const std::vector<Request> reqs =
      chat ? ChatRequests(opt.seed, shape) : RagRequests(opt.seed, shape);

  // ---- timed phase: whole rounds of the same requests.
  std::vector<Round> rounds;
  const double start = NowSeconds();
  do {
    if (!rounds.empty()) {
      engine.reset();  // one engine alive at a time, so RSS is per round
      engine = std::make_unique<sl::api::Engine>(program, *weights, u280, ec);
    }
    rounds.push_back(RunRound(*engine, reqs, tr, tr.on()));
    r.attempted += static_cast<std::int64_t>(reqs.size());
    r.failed += rounds.back().failed;
  } while (NowSeconds() - start < opt.seconds);
  const ProcessUsage end_usage = ReadProcessUsage();
  const std::int64_t blocks = engine->kv_block_capacity(0);
  engine.reset();

  // ---- checks.
  const Round& rd = rounds.front();
  const auto& m = rd.report.merged;
  for (std::size_t i = 1; i < rounds.size(); ++i) {
    r.Check({"rounds_repeat_exactly", SameSimulatedOutcome(rd, rounds[i]),
             "round " + std::to_string(i) + " differs from round 0"});
  }
  r.Check(CheckFinish(rd.served, reqs));
  r.Check(CheckTimestamps(rd.served, u280.clock_mhz * 1e6));
  r.Check(CheckDrained(rd.blocks_in_use));
  r.Check(CheckTokenIdentity(rd.delivered, m.total_tokens,
                             m.prefix_cache_hit_tokens));
  r.Check({"prefix_cache_shape",
           chat ? (m.prefix_cache_queries > 0 && m.prefix_cache_hits == 0)
                : m.prefix_cache_hits > 0,
           "queries " + std::to_string(m.prefix_cache_queries) + ", hits " +
               std::to_string(m.prefix_cache_hits)});

  // Streams against a ReferenceModel replay with the engine's per-stream
  // seed rule, on every 10th request.
  std::vector<std::vector<float>> logits;  // for the traced sampler figures
  for (std::size_t i = 0; i < reqs.size(); i += 10) {
    sl::llama::SamplerConfig sc = ec.sampler;
    sc.seed = ec.sampler.seed + i * 7919;
    const auto want =
        ReplayStream(*weights, sc, reqs[i], tr.on() ? &logits : nullptr);
    CheckResult c = CheckSameTokens("request " + std::to_string(i), want,
                                    rd.served[i].streamed);
    c.name = "stream_equals_reference_replay";
    r.Check(std::move(c));
    if (!r.correct) break;
  }

  // Single-stream accelerator probe: the TPOT floor, and the paper's
  // energy and speed-up figures on this workload's first four requests.
  AcceleratorProbe probe;
  if (!probe.Create(*weights, u280, tr)) return false;
  const std::vector<Request> probe_reqs(reqs.begin(), reqs.begin() + 4);
  std::vector<Generation> gens;
  std::int64_t probe_failed = 0;
  if (!probe.Generate(probe_reqs, tr, gens, probe_failed)) return false;
  probe.Replay(gens, nullptr, r, nullptr);
  r.Check(CheckTpotFloor(rd.served, probe.DecodeStepSeconds(reqs[0].prompt[0])));

  // ---- end-to-end metrics (sim from round 0; they repeat every round).
  std::vector<double> ttft, tpot;
  double first_arrival = 1e300, last_completion = 0.0;
  for (const Served& s : rd.served) {
    ttft.push_back(s.first_token - s.arrival);
    tpot.push_back(s.tpot());
    first_arrival = std::min(first_arrival, s.arrival);
    last_completion = std::max(last_completion, s.completion);
  }
  std::vector<std::vector<double>> segment_s;
  for (const Round& x : rounds) segment_s.push_back(x.segment_s);
  r.E2e("setup_s", setup_s, "s");
  r.E2e("peak_rss_mib", end_usage.peak_rss_mib, "MiB");
  r.E2e("host_tokens_per_s",
        static_cast<double>(rd.delivered) / BestOfRounds(segment_s),
        "tokens/s");
  r.E2e("sim_ttft_p50_ms", Percentile(ttft, 0.5) * 1e3, "ms");
  r.E2e("sim_ttft_p99_ms", Percentile(ttft, 0.99) * 1e3, "ms");
  r.E2e("sim_tpot_p50_ms", Percentile(tpot, 0.5) * 1e3, "ms");
  r.E2e("sim_tpot_p99_ms", Percentile(tpot, 0.99) * 1e3, "ms");
  r.E2e("sim_tokens_per_s",
        static_cast<double>(rd.delivered) / (last_completion - first_arrival),
        "tokens/s");
  probe.EmitEndToEnd(gens, r);

  if (!tr.on()) return true;

  // ---- per-layer metrics (traced run only).
  const double n_rounds = static_cast<double>(rounds.size());
  double cpu = 0.0, sys = 0.0, submit = 0.0, step = 0.0, finish = 0.0;
  double best_step = rd.step_s;
  for (const Round& x : rounds) {
    cpu += x.usage_after.user_s - x.usage_before.user_s +
           x.usage_after.sys_s - x.usage_before.sys_s;
    sys += x.usage_after.sys_s - x.usage_before.sys_s;
    submit += x.submit_s;
    step += x.step_s;
    finish += x.finish_s;
    best_step = std::min(best_step, x.step_s);
  }
  r.Layer("host.cpu_s", cpu / n_rounds, "s");
  r.Layer("host.sys_s", sys / n_rounds, "s");
  r.Layer("host.minor_faults", static_cast<double>(setup_usage.minor_faults),
          "count");
  r.Layer("llama.checkpoint_read_s", tr.Total("llama.ReadCheckpoint"), "s");
  r.Layer("llama.matmul_gmacs_per_s", MatMulGmacsPerSecond(shape), "GMAC/s");
  SamplerLayer(logits, r);
  r.Layer("compiler.compile_s", tr.Total("compiler.Compile"), "s");
  r.Layer("compiler.instructions", static_cast<double>(program.instrs.size()),
          "count");
  probe.EmitLayers(r);
  r.Layer("api.engine_create_s", engine_create_s, "s");
  r.Layer("api.submit_us",
          submit / (n_rounds * static_cast<double>(reqs.size())) * 1e6, "us");
  r.Layer("api.step_s", step / n_rounds, "s");
  r.Layer("api.finish_s", finish / n_rounds, "s");

  // KV pool built directly with the per-card geometry the engine reported.
  const std::uint32_t block_tokens = ec.scheduler.block_size_tokens;
  const std::uint64_t block_bytes =
      static_cast<std::uint64_t>(block_tokens) *
      sl::serving::KvBytesPerToken(weights->config);
  {
    const double a = NowSeconds();
    sl::serving::KvBlockPool pool(sl::serving::MakeKvPoolConfig(
        weights->config, sl::serving::KvCacheDtype::kFp16,
        static_cast<std::uint64_t>(blocks) * block_bytes, block_tokens, true));
    r.Layer("serving.kv_pool_create_s", NowSeconds() - a, "s");
    r.Check({"kv_pool_geometry", pool.num_blocks() == blocks,
             std::to_string(pool.num_blocks()) + " blocks vs engine " +
                 std::to_string(blocks)});
  }
  r.Layer("serving.kv_blocks_per_card", static_cast<double>(blocks), "count");
  std::vector<double> queue, prefill;
  for (const Served& s : rd.served) {
    queue.push_back(s.admission - s.arrival);
    prefill.push_back(s.first_token - s.admission);
  }
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  r.Layer("serving.ticks", static_cast<double>(m.ticks), "count");
  r.Layer("serving.batch_width_mean", m.mean_batch_width, "seqs");
  r.Layer("serving.queue_ms_p50", Percentile(queue, 0.5) * 1e3, "ms");
  r.Layer("serving.queue_ms_p99", Percentile(queue, 0.99) * 1e3, "ms");
  r.Layer("serving.card_utilization_mean", rd.report.mean_utilization(),
          "ratio");
  r.Layer("serving.imbalance", rd.report.imbalance(), "ratio");
  r.Layer("serving.preemptions", static_cast<double>(m.preemptions), "count");
  r.Layer("serving.recomputed_tokens", static_cast<double>(m.recomputed_tokens),
          "tokens");
  r.Layer("serving.prefill_ms_p50", Percentile(prefill, 0.5) * 1e3, "ms");
  r.Layer("serving.prefix_hit_rate",
          ratio(static_cast<double>(m.prefix_cache_hits),
                static_cast<double>(m.prefix_cache_queries)),
          "ratio");
  r.Layer("serving.prefix_hit_token_share",
          ratio(static_cast<double>(m.prefix_cache_hit_tokens),
                static_cast<double>(m.prefix_cache_lookup_tokens)),
          "ratio");
  r.Layer("serving.cow_copies", static_cast<double>(m.cow_copies), "count");
  r.Layer("serving.cache_evictions", static_cast<double>(m.cache_evictions),
          "count");
  r.Layer("serving.dma_bytes", static_cast<double>(m.dma_bytes_moved), "bytes");
  r.Layer("serving.dma_ms", m.dma_time_seconds * 1e3, "ms");
  r.Layer("serving.kv_transfer_bytes",
          static_cast<double>(rd.report.kv_transfer_bytes), "bytes");
  r.Layer("serving.remote_prefix_hits",
          static_cast<double>(rd.report.remote_prefix_hits), "count");

  // Telemetry on: one more round, whose outcome must not change.
  sl::api::EngineConfig ec_obs = ec;
  ec_obs.telemetry.enable_tracing = true;
  ec_obs.telemetry.enable_metrics = true;
  sl::api::Engine observed(program, *weights, u280, ec_obs);
  Tracer off(false);
  Round obs = RunRound(observed, reqs, off, true);
  r.Check({"telemetry_does_not_change_outcome", SameSimulatedOutcome(rd, obs),
           "telemetry-on round differs"});
  // Against the fastest telemetry-off round: the telemetry round runs
  // last, on a warm allocator and caches, so the mean of all rounds (the
  // cold first one included) would understate its cost.
  r.Layer("obs.overhead_ratio", obs.step_s / best_step, "ratio");
  // One export per workload (several MB each); the next traced run of the
  // workload overwrites it.
  const std::string stem = opt.out_dir + "/" + opt.workload;
  {
    ScopedSpan span(tr, "obs.WriteTrace");
    const double a = NowSeconds();
    r.Check({"telemetry_trace_written",
             observed.WriteTrace(stem + "-telemetry-trace.json").ok(), ""});
    r.Layer("obs.write_trace_s", NowSeconds() - a, "s");
  }
  {
    ScopedSpan span(tr, "obs.WriteMetricsJson");
    const double a = NowSeconds();
    r.Check({"telemetry_metrics_written",
             observed.WriteMetricsJson(stem + "-telemetry-metrics.json").ok(),
             ""});
    r.Layer("obs.write_metrics_s", NowSeconds() - a, "s");
  }
  return true;
}

}  // namespace speedbench
